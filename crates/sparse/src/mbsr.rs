//! The mBSR format — the paper's unified sparse storage (Section IV.B).
//!
//! A matrix is covered by 4x4 tiles. Two index arrays describe tile
//! positions (`blc_ptr`, `blc_idx` — as in classic BSR) and two data arrays
//! describe tile contents: `blc_val` stores all 16 slots of every tile
//! (zeros included, so tensor cores can consume them directly) and
//! `blc_map` stores one 16-bit nonzero bitmap per tile — the single
//! difference from classic BSR, and the key to choosing between tensor and
//! CUDA cores per tile.

use crate::bitmap::{self, TILE, TILE_AREA};
use crate::csr::Csr;

/// A sparse matrix in mBSR format.
#[derive(Clone, Debug, PartialEq)]
pub struct Mbsr {
    /// Scalar dimensions (tiles may overhang them; overhang slots are zero).
    nrows: usize,
    ncols: usize,
    /// Tile-grid dimensions: `ceil(nrows/4)` x `ceil(ncols/4)`.
    blk_rows: usize,
    blk_cols: usize,
    /// Offsets of the first tile of each block-row; length `blk_rows + 1`.
    pub blc_ptr: Vec<usize>,
    /// Block-column index of each tile, ascending within a block-row.
    pub blc_idx: Vec<u32>,
    /// Nonzero bitmap of each tile.
    pub blc_map: Vec<u16>,
    /// Tile values, 16 per tile in row-major order.
    pub blc_val: Vec<f64>,
}

/// Classic BSR (no bitmap) — kept only for the Figure 10 conversion-cost
/// comparison against cuSPARSE's `csr2bsr`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bsr {
    pub nrows: usize,
    pub ncols: usize,
    pub blk_rows: usize,
    pub blk_cols: usize,
    pub blc_ptr: Vec<usize>,
    pub blc_idx: Vec<u32>,
    pub blc_val: Vec<f64>,
}

impl Mbsr {
    /// Assemble an mBSR matrix from raw arrays (used by the SpGEMM kernels
    /// that produce results directly in tile form).
    ///
    /// # Panics
    /// Panics when the structural invariants do not hold (checked cheaply;
    /// full value/bitmap agreement is checked only in debug builds via
    /// [`Mbsr::validate`]).
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        blk_rows: usize,
        blk_cols: usize,
        blc_ptr: Vec<usize>,
        blc_idx: Vec<u32>,
        blc_map: Vec<u16>,
        blc_val: Vec<f64>,
    ) -> Mbsr {
        assert_eq!(blk_rows, nrows.div_ceil(TILE), "blk_rows mismatch");
        assert_eq!(blk_cols, ncols.div_ceil(TILE), "blk_cols mismatch");
        assert_eq!(blc_ptr.len(), blk_rows + 1);
        assert_eq!(blc_idx.len(), blc_map.len());
        assert_eq!(blc_val.len(), blc_idx.len() * TILE_AREA);
        assert_eq!(*blc_ptr.last().unwrap_or(&0), blc_idx.len());
        let m = Mbsr {
            nrows,
            ncols,
            blk_rows,
            blk_cols,
            blc_ptr,
            blc_idx,
            blc_map,
            blc_val,
        };
        #[cfg(debug_assertions)]
        m.validate();
        m
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    pub fn blk_rows(&self) -> usize {
        self.blk_rows
    }

    pub fn blk_cols(&self) -> usize {
        self.blk_cols
    }

    /// Number of stored tiles (`blc_num` in the paper).
    pub fn n_blocks(&self) -> usize {
        self.blc_idx.len()
    }

    /// Number of stored scalar nonzeros (bitmap population).
    pub fn nnz(&self) -> usize {
        self.blc_map.iter().map(|&m| m.count_ones() as usize).sum()
    }

    /// Tiles of block-row `br`: `(block column indices, bitmaps)`.
    #[inline]
    pub fn block_row(&self, br: usize) -> (&[u32], &[u16]) {
        let (lo, hi) = (self.blc_ptr[br], self.blc_ptr[br + 1]);
        (&self.blc_idx[lo..hi], &self.blc_map[lo..hi])
    }

    /// Values of tile `b` (16 slots, row-major).
    #[inline]
    pub fn tile(&self, b: usize) -> &[f64; TILE_AREA] {
        self.blc_val[b * TILE_AREA..(b + 1) * TILE_AREA]
            .try_into()
            .expect("tile slice is TILE_AREA long")
    }

    /// Total count of nonempty 4-wide tile rows across all blocks: the
    /// number of 32-byte row transactions a row-granular kernel reads.
    pub fn nonempty_tile_rows(&self) -> usize {
        self.blc_map
            .iter()
            .map(|&m| (0..TILE).filter(|&r| bitmap::row_mask(m, r) != 0).count())
            .sum()
    }

    /// Average number of nonzeros per stored tile — the paper's
    /// `avg_nnz_blc`, which selects the SpMV compute path.
    pub fn avg_nnz_per_block(&self) -> f64 {
        if self.n_blocks() == 0 {
            return 0.0;
        }
        self.nnz() as f64 / self.n_blocks() as f64
    }

    /// Coefficient of variation of tiles per block-row — the paper's
    /// "variation" parameter that decides whether the load-balanced SpMV
    /// schedule is needed.
    pub fn block_row_variation(&self) -> f64 {
        if self.blk_rows == 0 || self.n_blocks() == 0 {
            return 0.0;
        }
        let mean = self.n_blocks() as f64 / self.blk_rows as f64;
        let var = (0..self.blk_rows)
            .map(|br| {
                let d = (self.blc_ptr[br + 1] - self.blc_ptr[br]) as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / self.blk_rows as f64;
        var.sqrt() / mean
    }

    /// Convert from CSR (the `CSR2MBSR` step of the AmgT data flow).
    ///
    /// Two sweeps over block-rows, each a 4-way [`TileMerge`] of the
    /// block-row's scalar rows: the first counts tiles into `blc_ptr`, the
    /// second writes indices, bitmaps and values. The second forks over
    /// block-rows with disjoint `blc_ptr`-delimited output slices.
    pub fn from_csr(a: &Csr) -> Mbsr {
        let nrows = a.nrows();
        let ncols = a.ncols();
        let blk_rows = nrows.div_ceil(TILE);
        let blk_cols = ncols.div_ceil(TILE);

        let mut blc_ptr = vec![0usize; blk_rows + 1];
        for br in 0..blk_rows {
            blc_ptr[br + 1] = blc_ptr[br] + TileMerge::new(a, br).count();
        }
        let n_blocks = blc_ptr[blk_rows];
        let mut blc_idx = vec![0u32; n_blocks];
        let mut blc_map = vec![0u16; n_blocks];
        let mut blc_val = vec![0.0f64; n_blocks * TILE_AREA];
        fill_tiles(
            a,
            &blc_ptr,
            0,
            blk_rows,
            &mut blc_idx,
            &mut blc_map,
            &mut blc_val,
        );

        Mbsr {
            nrows,
            ncols,
            blk_rows,
            blk_cols,
            blc_ptr,
            blc_idx,
            blc_map,
            blc_val,
        }
    }

    /// Convert back to CSR (the `MBSR2CSR` step after the Galerkin product).
    /// Entries not present in the bitmap are dropped even if a value slot is
    /// nonzero (the bitmap is authoritative).
    pub fn to_csr(&self) -> Csr {
        let mut row_ptr = vec![0usize; self.nrows + 1];
        for br in 0..self.blk_rows {
            let (_, maps) = self.block_row(br);
            for &m in maps {
                for lr in 0..TILE {
                    let r = br * TILE + lr;
                    if r < self.nrows {
                        row_ptr[r + 1] += bitmap::row_mask(m, lr).count_ones() as usize;
                    }
                }
            }
        }
        for r in 0..self.nrows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let nnz = row_ptr[self.nrows];
        let mut col_idx = vec![0u32; nnz];
        let mut vals = vec![0.0; nnz];
        let mut cursor = row_ptr.clone();
        for br in 0..self.blk_rows {
            for b in self.blc_ptr[br]..self.blc_ptr[br + 1] {
                let bc = self.blc_idx[b] as usize;
                let m = self.blc_map[b];
                let tile = self.tile(b);
                for lr in 0..TILE {
                    let r = br * TILE + lr;
                    if r >= self.nrows {
                        break;
                    }
                    for lc in 0..TILE {
                        if bitmap::get_bit(m, lr, lc) {
                            let p = cursor[r];
                            col_idx[p] = (bc * TILE + lc) as u32;
                            vals[p] = tile[lr * TILE + lc];
                            cursor[r] += 1;
                        }
                    }
                }
            }
        }
        Csr::new(self.nrows, self.ncols, row_ptr, col_idx, vals)
    }

    /// Exact `y = A x` on the tile structure (reference for kernel tests).
    pub fn matvec_reference(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols);
        let mut y = vec![0.0; self.nrows];
        for br in 0..self.blk_rows {
            for b in self.blc_ptr[br]..self.blc_ptr[br + 1] {
                let bc = self.blc_idx[b] as usize;
                let tile = self.tile(b);
                let m = self.blc_map[b];
                for lr in 0..TILE {
                    let r = br * TILE + lr;
                    if r >= self.nrows {
                        break;
                    }
                    let mut acc = 0.0;
                    for lc in 0..TILE {
                        if bitmap::get_bit(m, lr, lc) {
                            let c = bc * TILE + lc;
                            acc += tile[lr * TILE + lc] * x[c];
                        }
                    }
                    y[r] += acc;
                }
            }
        }
        y
    }

    /// Memory footprint in bytes, at a given value width (the cost model
    /// charges FP16 tiles at two bytes per slot, etc.).
    pub fn bytes_at(&self, value_bytes: usize) -> f64 {
        (self.blc_ptr.len() * std::mem::size_of::<usize>()
            + self.blc_idx.len() * std::mem::size_of::<u32>()
            + self.blc_map.len() * std::mem::size_of::<u16>()
            + self.blc_val.len() * value_bytes) as f64
    }

    /// Validate internal invariants (test / debug aid).
    pub fn validate(&self) {
        assert_eq!(self.blc_ptr.len(), self.blk_rows + 1);
        assert_eq!(self.blc_idx.len(), self.blc_map.len());
        assert_eq!(self.blc_val.len(), self.blc_idx.len() * TILE_AREA);
        assert_eq!(*self.blc_ptr.last().unwrap(), self.blc_idx.len());
        for br in 0..self.blk_rows {
            let (cols, maps) = self.block_row(br);
            for w in cols.windows(2) {
                assert!(w[0] < w[1], "block row {br} unsorted");
            }
            if let Some(&last) = cols.last() {
                assert!((last as usize) < self.blk_cols);
            }
            for (i, &m) in maps.iter().enumerate() {
                assert_ne!(m, 0, "empty tile stored in block row {br} slot {i}");
            }
        }
        // Bitmap and value slots agree: zero slots where the bit is clear.
        for b in 0..self.n_blocks() {
            let m = self.blc_map[b];
            for (i, &v) in self.tile(b).iter().enumerate() {
                if m & (1 << i) == 0 {
                    assert_eq!(v, 0.0, "tile {b} slot {i} has value without bit");
                }
            }
        }
    }
}

/// Block-rows per leaf of [`Mbsr::from_csr`]'s fill sweep. Any split
/// gives the same bits (each leaf writes its own rows); this only keeps
/// leaves large enough to amortize the fork.
const FILL_GRAIN: usize = 64;

/// Fill block-rows `[r0, r1)` of a CSR->mBSR conversion into `idx`/`map`/
/// `val`, which start at row `r0`'s first tile. Halves the row range — and
/// the output slices at the matching `blc_ptr` boundary — until at most
/// [`FILL_GRAIN`] rows remain.
fn fill_tiles(
    a: &Csr,
    blc_ptr: &[usize],
    r0: usize,
    r1: usize,
    idx: &mut [u32],
    map: &mut [u16],
    val: &mut [f64],
) {
    if r1 - r0 > FILL_GRAIN {
        let mid = r0 + (r1 - r0) / 2;
        let cut = blc_ptr[mid] - blc_ptr[r0];
        let (idx_lo, idx_hi) = idx.split_at_mut(cut);
        let (map_lo, map_hi) = map.split_at_mut(cut);
        let (val_lo, val_hi) = val.split_at_mut(cut * TILE_AREA);
        rayon::join(
            || fill_tiles(a, blc_ptr, r0, mid, idx_lo, map_lo, val_lo),
            || fill_tiles(a, blc_ptr, mid, r1, idx_hi, map_hi, val_hi),
        );
        return;
    }
    for br in r0..r1 {
        let mut tiles = TileMerge::new(a, br);
        for t in blc_ptr[br] - blc_ptr[r0]..blc_ptr[br + 1] - blc_ptr[r0] {
            let out = &mut val[t * TILE_AREA..(t + 1) * TILE_AREA];
            (idx[t], map[t]) = tiles
                .next_tile(|slot, v| out[slot] = v)
                .expect("tile counted by the first sweep");
        }
    }
}

/// The tiles of one CSR block-row in ascending block-column order: a 4-way
/// merge of its scalar rows' block-column streams. CSR columns are
/// strictly ascending within a row ([`Csr::new`]), so each stream is
/// non-decreasing and every row's entries for one tile are adjacent — one
/// forward cursor per row finds them without sorting or searching.
pub(crate) struct TileMerge<'a> {
    cols: [&'a [u32]; TILE],
    vals: [&'a [f64]; TILE],
}

impl<'a> TileMerge<'a> {
    /// Cursors at the start of block-row `br`'s (up to four) rows.
    pub(crate) fn new(a: &'a Csr, br: usize) -> Self {
        let mut cols: [&[u32]; TILE] = [&[]; TILE];
        let mut vals: [&[f64]; TILE] = [&[]; TILE];
        for lr in 0..TILE.min(a.nrows() - br * TILE) {
            (cols[lr], vals[lr]) = a.row(br * TILE + lr);
        }
        TileMerge { cols, vals }
    }

    /// Advance past the next tile and return its block column and bitmap,
    /// calling `put(slot, value)` for each of its entries (`slot` is the
    /// row-major position within the tile). `None` once the block-row is
    /// exhausted.
    #[inline]
    pub(crate) fn next_tile(&mut self, mut put: impl FnMut(usize, f64)) -> Option<(u32, u16)> {
        let bc = self
            .cols
            .iter()
            .filter_map(|c| c.first())
            .map(|&c| c / TILE as u32)
            .min()?;
        let mut map = 0u16;
        for lr in 0..TILE {
            let cols = self.cols[lr];
            let n = cols.iter().take_while(|&&c| c / TILE as u32 == bc).count();
            for (&c, &v) in cols[..n].iter().zip(self.vals[lr]) {
                let slot = lr * TILE + (c as usize % TILE);
                map |= 1 << slot;
                put(slot, v);
            }
            self.cols[lr] = &cols[n..];
            self.vals[lr] = &self.vals[lr][n..];
        }
        Some((bc, map))
    }

    /// Number of tiles left in the block-row.
    pub(crate) fn count(mut self) -> usize {
        let mut n = 0;
        while self.next_tile(|_, _| {}).is_some() {
            n += 1;
        }
        n
    }
}

impl Bsr {
    /// Classic CSR→BSR conversion (cuSPARSE `csr2bsr` equivalent): same
    /// tiling as mBSR but no bitmap array.
    pub fn from_csr(a: &Csr) -> Bsr {
        let m = Mbsr::from_csr(a);
        Bsr {
            nrows: m.nrows,
            ncols: m.ncols,
            blk_rows: m.blk_rows,
            blk_cols: m.blk_cols,
            blc_ptr: m.blc_ptr,
            blc_idx: m.blc_idx,
            blc_val: m.blc_val,
        }
    }

    pub fn n_blocks(&self) -> usize {
        self.blc_idx.len()
    }

    pub fn bytes_at(&self, value_bytes: usize) -> f64 {
        (self.blc_ptr.len() * std::mem::size_of::<usize>()
            + self.blc_idx.len() * std::mem::size_of::<u32>()
            + self.blc_val.len() * value_bytes) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn paper_example() -> Csr {
        // An 8x8 matrix with three 4x4 tiles like Figure 3: a dense-ish
        // tile at (0,0), one at (0,1), one at (1,1).
        Csr::from_triplets(
            8,
            8,
            &[
                (0, 0, 1.0),
                (0, 1, 2.0),
                (1, 1, 3.0),
                (2, 2, 4.0),
                (3, 0, 5.0),
                (0, 4, 6.0),
                (2, 7, 7.0),
                (4, 4, 8.0),
                (5, 5, 9.0),
                (6, 6, 10.0),
                (7, 7, 11.0),
                (7, 4, 12.0),
            ],
        )
    }

    #[test]
    fn from_csr_structure() {
        let a = paper_example();
        let m = Mbsr::from_csr(&a);
        m.validate();
        assert_eq!(m.blk_rows(), 2);
        assert_eq!(m.blk_cols(), 2);
        assert_eq!(m.n_blocks(), 3);
        assert_eq!(m.blc_ptr, vec![0, 2, 3]);
        assert_eq!(m.blc_idx, vec![0, 1, 1]);
        assert_eq!(m.nnz(), a.nnz());
    }

    #[test]
    fn roundtrip_csr_mbsr_csr() {
        let a = paper_example();
        let back = Mbsr::from_csr(&a).to_csr();
        assert_eq!(a, back);
    }

    #[test]
    fn roundtrip_random_matrices() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..10 {
            let n = rng.gen_range(1..60);
            let ncols = rng.gen_range(1..60);
            let nnz = rng.gen_range(0..n * ncols / 2 + 1);
            let trips: Vec<(usize, usize, f64)> = (0..nnz)
                .map(|_| {
                    (
                        rng.gen_range(0..n),
                        rng.gen_range(0..ncols),
                        rng.gen_range(-5.0..5.0),
                    )
                })
                .collect();
            let a = Csr::from_triplets(n, ncols, &trips);
            let m = Mbsr::from_csr(&a);
            m.validate();
            assert_eq!(m.to_csr(), a, "trial {trial} n={n} ncols={ncols}");
        }
    }

    #[test]
    fn matvec_reference_matches_csr() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 37; // Deliberately not a multiple of 4.
        let trips: Vec<(usize, usize, f64)> = (0..300)
            .map(|_| {
                (
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                    rng.gen_range(-1.0..1.0),
                )
            })
            .collect();
        let a = Csr::from_triplets(n, n, &trips);
        let m = Mbsr::from_csr(&a);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y_csr = a.matvec(&x);
        let y_mbsr = m.matvec_reference(&x);
        for (u, v) in y_csr.iter().zip(&y_mbsr) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn avg_nnz_and_variation() {
        let a = paper_example();
        let m = Mbsr::from_csr(&a);
        assert!((m.avg_nnz_per_block() - a.nnz() as f64 / 3.0).abs() < 1e-15);
        // Block row 0 has 2 tiles, row 1 has 1: nonzero variation.
        assert!(m.block_row_variation() > 0.0);

        let dense_diag = Csr::identity(8);
        let md = Mbsr::from_csr(&dense_diag);
        assert_eq!(md.n_blocks(), 2);
        assert_eq!(md.block_row_variation(), 0.0);
    }

    #[test]
    fn empty_matrix() {
        let a = Csr::zero(5, 5);
        let m = Mbsr::from_csr(&a);
        m.validate();
        assert_eq!(m.n_blocks(), 0);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.avg_nnz_per_block(), 0.0);
        assert_eq!(m.to_csr(), a);
    }

    #[test]
    fn bsr_matches_mbsr_minus_map() {
        let a = paper_example();
        let m = Mbsr::from_csr(&a);
        let b = Bsr::from_csr(&a);
        assert_eq!(b.blc_ptr, m.blc_ptr);
        assert_eq!(b.blc_idx, m.blc_idx);
        assert_eq!(b.blc_val, m.blc_val);
        // mBSR stores exactly 2 extra bytes per block (the bitmap).
        assert_eq!(m.bytes_at(8) - b.bytes_at(8), (2 * m.n_blocks()) as f64);
    }

    #[test]
    fn bytes_at_scales_with_precision() {
        let a = paper_example();
        let m = Mbsr::from_csr(&a);
        let b64 = m.bytes_at(8);
        let b16 = m.bytes_at(2);
        let val_bytes = (m.n_blocks() * TILE_AREA) as f64;
        assert_eq!(b64 - b16, val_bytes * 6.0);
    }

    #[test]
    fn tile_values_layout_row_major() {
        let a = Csr::from_triplets(4, 4, &[(1, 2, 42.0)]);
        let m = Mbsr::from_csr(&a);
        assert_eq!(m.n_blocks(), 1);
        let t = m.tile(0);
        assert_eq!(t[TILE + 2], 42.0); // Slot (1, 2).
        assert_eq!(t.iter().filter(|&&v| v != 0.0).count(), 1);
        assert_eq!(m.blc_map[0], 1 << 6);
    }
}
