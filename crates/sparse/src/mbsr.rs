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
use std::cell::RefCell;
use std::ops::Range;

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
    /// Two sweeps over block-rows, each forked over fixed-size runs of
    /// block-rows with disjoint outputs, and neither with a data-dependent
    /// branch per entry (block-rows of coarse-level operands hold dozens
    /// of tiles with one or two entries each, where such branches miss):
    ///
    /// 1. **Structure.** A block-row's distinct block columns, found from
    ///    its column indices alone through a per-thread grow-only stamp per
    ///    block column, are sorted into the block-row's own stretch of an
    ///    `nnz`-long scratch (a block-row has at most as many tiles as
    ///    entries), and their count goes to `blc_ptr`. A prefix sum then
    ///    sets `blc_ptr` and compacts the stretches into `blc_idx`.
    /// 2. **Scatter.** Every scalar entry goes to its tile slot and sets
    ///    its bitmap bit, its tile found through a per-thread block column
    ///    to tile map filled from the block-row's `blc_idx`.
    ///
    /// Explicitly stored zeros set their bit like any other entry.
    pub fn from_csr(a: &Csr) -> Mbsr {
        let nrows = a.nrows();
        let ncols = a.ncols();
        let blk_rows = nrows.div_ceil(TILE);
        let blk_cols = ncols.div_ceil(TILE);
        // First CSR entry of block-row `br` (`br <= blk_rows`).
        let entry_lo = |br: usize| a.row_ptr[(br * TILE).min(nrows)];

        let mut blc_idx = vec![0u32; a.nnz()];
        let mut blc_ptr = vec![0usize; blk_rows + 1];
        fork_block_rows(
            0..blk_rows,
            (&mut blc_idx[..], &mut blc_ptr[1..]),
            &|(idx, cnt), r0, mid| {
                let (idx_lo, idx_hi) = idx.split_at_mut(entry_lo(mid) - entry_lo(r0));
                let (cnt_lo, cnt_hi) = cnt.split_at_mut(mid - r0);
                ((idx_lo, cnt_lo), (idx_hi, cnt_hi))
            },
            &|rows, (idx, cnt)| block_columns(a, rows, idx, cnt, blk_cols),
        );
        for br in 0..blk_rows {
            let (src, n) = (entry_lo(br), blc_ptr[br + 1]);
            blc_ptr[br + 1] = blc_ptr[br] + n;
            blc_idx.copy_within(src..src + n, blc_ptr[br]);
        }
        let n_blocks = blc_ptr[blk_rows];
        blc_idx.truncate(n_blocks);
        blc_idx.shrink_to_fit();

        let mut blc_map = vec![0u16; n_blocks];
        let mut blc_val = vec![0.0f64; n_blocks * TILE_AREA];
        let (tiles, _) = blc_val.as_chunks_mut::<TILE_AREA>();
        fork_block_rows(
            0..blk_rows,
            (&mut blc_map[..], tiles),
            &|(map, val), r0, mid| {
                let cut = blc_ptr[mid] - blc_ptr[r0];
                let (map_lo, map_hi) = map.split_at_mut(cut);
                let (val_lo, val_hi) = val.split_at_mut(cut);
                ((map_lo, val_lo), (map_hi, val_hi))
            },
            &|rows, (map, val)| scatter_entries(a, &blc_ptr, &blc_idx, rows, map, val, blk_cols),
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
    ///
    /// Two sweeps over block-rows, forked like [`Mbsr::from_csr`]'s: the
    /// first counts each scalar row's entries from per-row bitmap
    /// popcounts, and after a prefix sum the second walks each tile's set
    /// bits (`trailing_zeros`) in slot order into per-row cursors. Slot
    /// order is row-major and tiles ascend by block column, so every row's
    /// columns come out ascending.
    ///
    /// # Panics
    /// Panics when a block-row's block columns are not strictly ascending
    /// and in range, or a bit lies past the last column: the CSR would
    /// break [`Csr::new`]'s invariants. The first sweep checks this per
    /// tile, so no per-entry check of the result is needed.
    pub fn to_csr(&self) -> Csr {
        let nrows = self.nrows;
        let mut row_ptr = vec![0usize; nrows + 1];
        // Counts of the block-rows from `r0` on start at `row_ptr[r0 * TILE + 1]`.
        fork_block_rows(
            0..self.blk_rows,
            &mut row_ptr[1..],
            &|cnt, r0, mid| cnt.split_at_mut((mid - r0) * TILE),
            &|rows, cnt| self.count_row_entries(rows, cnt),
        );
        for r in 0..nrows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let nnz = row_ptr[nrows];
        let mut col_idx = vec![0u32; nnz];
        let mut vals = vec![0.0; nnz];
        let entry_lo = |br: usize| row_ptr[(br * TILE).min(nrows)];
        fork_block_rows(
            0..self.blk_rows,
            (&mut col_idx[..], &mut vals[..]),
            &|(cols, vals), r0, mid| {
                let cut = entry_lo(mid) - entry_lo(r0);
                let (cols_lo, cols_hi) = cols.split_at_mut(cut);
                let (vals_lo, vals_hi) = vals.split_at_mut(cut);
                ((cols_lo, vals_lo), (cols_hi, vals_hi))
            },
            &|rows, (cols, vals)| self.gather_entries(&row_ptr, rows, cols, vals),
        );
        Csr::from_valid_parts(nrows, self.ncols, row_ptr, col_idx, vals)
    }

    /// Bitmap bits of block-row `br` that fall inside the matrix's rows
    /// (all 16 but in a ragged last block-row).
    #[inline]
    fn rows_inside(&self, br: usize) -> (usize, u16) {
        let rows = TILE.min(self.nrows - br * TILE);
        (rows, (u32::MAX >> (32 - TILE * rows)) as u16)
    }

    /// Bitmap bits of a tile in block column `bc` that fall inside the
    /// matrix's columns (all 16 but in a ragged last block column).
    #[inline]
    fn cols_inside(&self, bc: usize) -> u16 {
        let cols = TILE.min(self.ncols - bc * TILE);
        ((1u16 << cols) - 1) * 0x1111
    }

    /// Entry counts of the scalar rows of block-rows `rows` into `cnt`,
    /// which starts at the first of them, after checking that the
    /// block-rows' tiles give ascending in-range CSR columns.
    fn count_row_entries(&self, rows: Range<usize>, cnt: &mut [usize]) {
        let r0 = rows.start;
        for br in rows {
            let (cols, maps) = self.block_row(br);
            assert!(
                cols.windows(2).all(|w| w[0] < w[1]),
                "block row {br} unsorted"
            );
            if let (Some(&bc), Some(&m)) = (cols.last(), maps.last()) {
                assert!(
                    (bc as usize) < self.blk_cols && m & !self.cols_inside(bc as usize) == 0,
                    "block row {br} reaches past column {}",
                    self.ncols
                );
            }
            let (n_rows, _) = self.rows_inside(br);
            let mut n = [0usize; TILE];
            // A tile adds at most 4 to a 16-bit lane: sum lanes over runs
            // short enough not to carry into the next lane.
            for run in maps.chunks(u16::MAX as usize / TILE) {
                let lanes: u64 = run.iter().map(|&m| bitmap::row_popcounts(m)).sum();
                for (lr, n) in n.iter_mut().enumerate() {
                    *n += (lanes >> (16 * lr)) as u16 as usize;
                }
            }
            cnt[(br - r0) * TILE..][..n_rows].copy_from_slice(&n[..n_rows]);
        }
    }

    /// Column indices and values of block-rows `rows` into `cols`/`vals`,
    /// which start at the first entry of the first of them.
    fn gather_entries(
        &self,
        row_ptr: &[usize],
        rows: Range<usize>,
        cols: &mut [u32],
        vals: &mut [f64],
    ) {
        let base = row_ptr[rows.start * TILE];
        for br in rows {
            let (n_rows, inside) = self.rows_inside(br);
            let mut cursor = [0usize; TILE];
            for (lr, c) in cursor.iter_mut().enumerate().take(n_rows) {
                *c = row_ptr[br * TILE + lr] - base;
            }
            for b in self.blc_ptr[br]..self.blc_ptr[br + 1] {
                let col0 = self.blc_idx[b] * TILE as u32;
                let tile = self.tile(b);
                let mut m = self.blc_map[b] & inside;
                while m != 0 {
                    let slot = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let p = &mut cursor[slot / TILE];
                    cols[*p] = col0 + (slot % TILE) as u32;
                    vals[*p] = tile[slot];
                    *p += 1;
                }
            }
        }
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

    /// Validate internal invariants (test / debug aid): array lengths,
    /// ascending in-range block columns, no empty tile, no bit past the
    /// last row or column in a ragged last tile, and no value without its
    /// bit.
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
            let (_, rows_inside) = self.rows_inside(br);
            for (i, (&m, &bc)) in maps.iter().zip(cols).enumerate() {
                assert_ne!(m, 0, "empty tile stored in block row {br} slot {i}");
                let inside = rows_inside & self.cols_inside(bc as usize);
                assert_eq!(
                    m & !inside,
                    0,
                    "block row {br} slot {i} has a bit past the matrix edge"
                );
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

/// Block-rows per leaf of the conversion sweeps. Any split gives the same
/// bits (each leaf writes only its own block-rows' outputs); this only
/// keeps leaves large enough to amortize the fork.
const CONVERT_GRAIN: usize = 64;

/// Run `leaf(rows, out)` over block-rows `rows`, halving the range — and
/// `out`, through `split(out, r0, mid)` at block-row `mid` — until at most
/// [`CONVERT_GRAIN`] block-rows remain, and forking the halves. The split
/// points depend only on the range, never on the pool width.
fn fork_block_rows<O: Send>(
    rows: Range<usize>,
    out: O,
    split: &(impl Fn(O, usize, usize) -> (O, O) + Sync),
    leaf: &(impl Fn(Range<usize>, O) + Sync),
) {
    if rows.len() > CONVERT_GRAIN {
        let mid = rows.start + rows.len() / 2;
        let (lo, hi) = split(out, rows.start, mid);
        rayon::join(
            || fork_block_rows(rows.start..mid, lo, split, leaf),
            || fork_block_rows(mid..rows.end, hi, split, leaf),
        );
    } else {
        leaf(rows, out);
    }
}

thread_local! {
    /// Grow-only per-block-column scratch of the [`Mbsr::from_csr`]
    /// sweeps, never cleared. `stamp` holds, per block column, the stamp of
    /// the last block-row whose structure touched it (`now` is the thread's
    /// current stamp; stamps only grow, so a stale entry never matches).
    /// `slot_of` holds the column's tile in the current block-row of the
    /// scatter, which writes its own block columns before reading any.
    static CONVERT_SCRATCH: RefCell<ConvertScratch> = const {
        RefCell::new(ConvertScratch { stamp: Vec::new(), now: 0, slot_of: Vec::new() })
    };
}

struct ConvertScratch {
    stamp: Vec<u32>,
    now: u32,
    slot_of: Vec<u32>,
}

/// Structure sweep of [`Mbsr::from_csr`] over block-rows `rows`: each
/// block-row's distinct block columns, ascending, at the start of its own
/// stretch of `idx` (which begins at the first entry of `rows`, one slot
/// per entry), and their count in `cnt`.
///
/// Branch-free over the entries, in two passes over the stretch: the
/// first writes each entry's block column and keeps it when it differs
/// from the previous one (a row's columns ascend, so this drops the
/// repeats within a tile row); the second keeps the columns whose stamp is
/// not yet the block-row's. Neighbours in the second pass differ, so no
/// stamp is read right after the same stamp was written.
fn block_columns(a: &Csr, rows: Range<usize>, idx: &mut [u32], cnt: &mut [usize], blk_cols: usize) {
    let nrows = a.nrows();
    let base = a.row_ptr[rows.start * TILE];
    CONVERT_SCRATCH.with_borrow_mut(|ConvertScratch { stamp, now, .. }| {
        if stamp.len() < blk_cols {
            stamp.resize(blk_cols, 0);
        }
        for br in rows.clone() {
            if *now == u32::MAX {
                stamp.fill(0);
                *now = 0;
            }
            *now += 1;
            let (lo, hi) = (
                a.row_ptr[br * TILE],
                a.row_ptr[(br * TILE + TILE).min(nrows)],
            );
            let out = &mut idx[lo - base..hi - base];
            let (mut runs, mut last) = (0, u32::MAX);
            for &c in &a.col_idx[lo..hi] {
                let bc = c / TILE as u32;
                out[runs] = bc;
                runs += (bc != last) as usize;
                last = bc;
            }
            let mut n = 0;
            for i in 0..runs {
                let bc = out[i];
                out[n] = bc;
                n += (stamp[bc as usize] != *now) as usize;
                stamp[bc as usize] = *now;
            }
            out[..n].sort_unstable();
            cnt[br - rows.start] = n;
        }
    });
}

/// Scatter sweep of [`Mbsr::from_csr`] over block-rows `rows`: every entry
/// into its tile's value slot, and its bit into the tile's bitmap, through
/// a per-thread block column to tile map (no search, no branch per entry).
/// `map` and `val` start at the first tile of `rows`.
fn scatter_entries(
    a: &Csr,
    blc_ptr: &[usize],
    blc_idx: &[u32],
    rows: Range<usize>,
    map: &mut [u16],
    val: &mut [[f64; TILE_AREA]],
    blk_cols: usize,
) {
    let base = blc_ptr[rows.start];
    CONVERT_SCRATCH.with_borrow_mut(|ConvertScratch { slot_of, .. }| {
        if slot_of.len() < blk_cols {
            slot_of.resize(blk_cols, 0);
        }
        for br in rows {
            let (lo, hi) = (blc_ptr[br], blc_ptr[br + 1]);
            for (t, &bc) in blc_idx[lo..hi].iter().enumerate() {
                slot_of[bc as usize] = t as u32;
            }
            let (map, val) = (
                &mut map[lo - base..hi - base],
                &mut val[lo - base..hi - base],
            );
            for lr in 0..TILE.min(a.nrows() - br * TILE) {
                let (cols, vals) = a.row(br * TILE + lr);
                for (&c, &v) in cols.iter().zip(vals) {
                    let t = slot_of[(c / TILE as u32) as usize] as usize;
                    let slot = lr * TILE + (c as usize % TILE);
                    map[t] |= 1 << slot;
                    val[t][slot] = v;
                }
            }
        }
    });
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
    #[should_panic(expected = "past the matrix edge")]
    fn validate_rejects_a_bit_past_the_last_row() {
        // 5 x 8: the second block-row holds one scalar row. Slot (1, 0) of
        // its tile lies on row 5, outside the matrix.
        let mut val = vec![0.0; TILE_AREA];
        (val[0], val[TILE]) = (1.0, 2.0);
        Mbsr::from_raw_parts(5, 8, 2, 2, vec![0, 0, 1], vec![0], vec![0b1_0001], val).validate();
    }

    #[test]
    #[should_panic(expected = "past the matrix edge")]
    fn validate_rejects_a_bit_past_the_last_column() {
        // 4 x 6: the second block column holds two scalar columns. Slot
        // (0, 3) of its tile lies on column 7, outside the matrix.
        let mut val = vec![0.0; TILE_AREA];
        (val[0], val[3]) = (1.0, 2.0);
        Mbsr::from_raw_parts(4, 6, 1, 2, vec![0, 1], vec![1], vec![0b1001], val).validate();
    }

    #[test]
    #[should_panic(expected = "value without bit")]
    fn validate_rejects_a_value_past_the_last_row() {
        let mut val = vec![0.0; TILE_AREA];
        (val[0], val[TILE]) = (1.0, 2.0);
        Mbsr::from_raw_parts(5, 8, 2, 2, vec![0, 0, 1], vec![0], vec![0b1], val).validate();
    }

    #[test]
    #[should_panic(expected = "reaches past column 6")]
    fn to_csr_rejects_a_bit_past_the_last_column() {
        let mut m = Mbsr::from_csr(&Csr::identity(6));
        // Slot (0, 3) of the corner tile is column 7.
        *m.blc_map.last_mut().unwrap() |= 1 << 3;
        m.to_csr();
    }

    #[test]
    #[should_panic(expected = "block row 0 unsorted")]
    fn to_csr_rejects_unsorted_block_columns() {
        let mut m = Mbsr::from_csr(&Csr::from_triplets(4, 8, &[(0, 0, 1.0), (0, 4, 2.0)]));
        m.blc_idx.swap(0, 1);
        m.to_csr();
    }

    #[test]
    fn to_csr_counts_a_row_past_one_popcount_lane() {
        // 65,540 entries in one row: more than a 16-bit lane holds.
        let n = 65_540;
        let a = Csr::new(1, n, vec![0, n], (0..n as u32).collect(), vec![1.0; n]);
        assert_eq!(Mbsr::from_csr(&a).to_csr(), a);
    }

    #[test]
    fn validate_accepts_a_full_ragged_corner() {
        // 5 x 6: every slot of the corner tile inside the matrix is set.
        let val = [1.0, 2.0].into_iter().chain([0.0; 14]).collect();
        Mbsr::from_raw_parts(5, 6, 2, 2, vec![0, 0, 1], vec![1], vec![0b11], val).validate();
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
