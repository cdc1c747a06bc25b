//! Bitmap algebra for 4x4 mBSR tiles.
//!
//! Each mBSR block stores its nonzero pattern in one `u16`: bit `4*r + c`
//! is set when element `(r, c)` of the tile is nonzero. The paper's
//! `BITMAPMULTIPLY` — a boolean 4x4 matrix product — lets both SpGEMM and
//! SpMV decide, with pure register arithmetic, whether a block product can
//! contribute nonzeros and which compute path (tensor vs CUDA cores) to use.

/// Tile edge length of the mBSR format.
pub const TILE: usize = 4;
/// Elements per tile.
pub const TILE_AREA: usize = TILE * TILE;

/// Bit position of element `(row, col)` within a tile bitmap.
#[inline]
pub const fn bit_index(row: usize, col: usize) -> u32 {
    (row * TILE + col) as u32
}

/// Test whether element `(row, col)` is present.
#[inline]
pub const fn get_bit(map: u16, row: usize, col: usize) -> bool {
    map & (1 << bit_index(row, col)) != 0
}

/// Set element `(row, col)`.
#[inline]
pub const fn set_bit(map: u16, row: usize, col: usize) -> u16 {
    map | (1 << bit_index(row, col))
}

/// Number of nonzeros in the tile (the paper's `POPCOUNT(mapA)`).
#[inline]
pub const fn popcount(map: u16) -> u32 {
    map.count_ones()
}

/// The paper's density threshold: tiles with at least 10 of 16 nonzeros
/// take the tensor-core path.
pub const TENSOR_DENSITY_THRESHOLD: u32 = 10;

/// Extract row `r` of the tile pattern as a 4-bit mask.
#[inline]
pub const fn row_mask(map: u16, r: usize) -> u16 {
    (map >> (TILE * r)) & 0xF
}

/// Number of nonempty 4-wide rows of the tile pattern. Branchless and
/// without a popcount: `y` has bit `4r` set for each nonempty row `r`, and
/// multiplying by `0x1111` sums those four bits into the top nibble.
#[inline]
pub const fn nonempty_rows(map: u16) -> u32 {
    let m = map | (map >> 1);
    let y = ((m | (m >> 2)) & 0x1111) as u32;
    ((y * 0x1111) >> 12) & 0xF
}

/// Entries in each row of the tile pattern, as four 16-bit lanes of a
/// `u64` (lane `r` holds the popcount of row `r`). SWAR: the two steps of
/// a nibble popcount leave each row's count in its own nibble, which is
/// then spread to its lane. Lanes of different tiles can be summed until
/// one would pass `u16::MAX`.
#[inline]
pub(crate) const fn row_popcounts(map: u16) -> u64 {
    let x = map as u64;
    let x = x - ((x >> 1) & 0x5555);
    let x = (x & 0x3333) + ((x >> 2) & 0x3333);
    (x & 0xF) | ((x & 0xF0) << 12) | ((x & 0xF00) << 24) | ((x & 0xF000) << 36)
}

/// Extract column `c` of the tile pattern as a 4-bit mask (bit `r` set when
/// `(r, c)` present).
#[inline]
pub const fn col_mask(map: u16, c: usize) -> u16 {
    let spread = (map >> c) & 0x1111; // bit 4*r set when (r, c) present
                                      // Compress bits 0,4,8,12 into bits 0..4.
    (spread & 0x0001)
        | ((spread & 0x0010) >> 3)
        | ((spread & 0x0100) >> 6)
        | ((spread & 0x1000) >> 9)
}

/// Boolean 4x4 matrix product of two tile patterns: the result has bit
/// `(i, j)` set when `exists k: a(i,k) && b(k,j)`. This is `BITMAPMULTIPLY`
/// from Algorithms 3 and 4.
///
/// Branchless: `(a >> k) & 0x1111` has bit `4i` set for every row `i` with
/// `a(i,k)`, and multiplying it by row `k` of `b` (at most `0xF`) copies
/// that row into each such 4-bit field. The fields are 4 bits apart and
/// each partial product is at most `0xF`, so no carries cross fields and
/// the OR over `k` is the boolean product.
#[inline]
pub fn bitmap_multiply(a: u16, b: u16) -> u16 {
    let (a, b) = (u32::from(a), u32::from(b));
    let mut c = 0u32;
    for k in 0..TILE {
        c |= ((a >> k) & 0x1111) * ((b >> (TILE * k)) & 0xF);
    }
    c as u16
}

/// Pattern transpose of a tile bitmap.
#[inline]
pub fn bitmap_transpose(map: u16) -> u16 {
    let mut t = 0u16;
    for r in 0..TILE {
        for c in 0..TILE {
            if get_bit(map, r, c) {
                t = set_bit(t, c, r);
            }
        }
    }
    t
}

/// Build a bitmap from a dense 4x4 tile (row-major, 16 values): a bit is
/// set for each stored nonzero.
pub fn bitmap_from_tile(tile: &[f64; TILE_AREA]) -> u16 {
    let mut map = 0u16;
    for (i, &v) in tile.iter().enumerate() {
        if v != 0.0 {
            map |= 1 << i;
        }
    }
    map
}

/// Reference boolean product used by tests: element-wise over dense 4x4.
pub fn bitmap_multiply_reference(a: u16, b: u16) -> u16 {
    let mut c = 0u16;
    for i in 0..TILE {
        for j in 0..TILE {
            for k in 0..TILE {
                if get_bit(a, i, k) && get_bit(b, k, j) {
                    c = set_bit(c, i, j);
                }
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_roundtrip() {
        let mut m = 0u16;
        m = set_bit(m, 0, 0);
        m = set_bit(m, 3, 3);
        m = set_bit(m, 1, 2);
        assert!(get_bit(m, 0, 0));
        assert!(get_bit(m, 3, 3));
        assert!(get_bit(m, 1, 2));
        assert!(!get_bit(m, 2, 1));
        assert_eq!(popcount(m), 3);
    }

    #[test]
    fn row_and_col_masks() {
        let mut m = 0u16;
        m = set_bit(m, 1, 0);
        m = set_bit(m, 1, 3);
        m = set_bit(m, 0, 2);
        m = set_bit(m, 3, 2);
        assert_eq!(row_mask(m, 1), 0b1001);
        assert_eq!(row_mask(m, 2), 0);
        assert_eq!(col_mask(m, 2), 0b1001); // rows 0 and 3
        assert_eq!(col_mask(m, 0), 0b0010); // row 1
        assert_eq!(col_mask(m, 1), 0);
    }

    #[test]
    fn row_popcounts_counts_every_pattern() {
        for map in 0..=u16::MAX {
            let lanes = row_popcounts(map);
            for r in 0..TILE {
                let want = row_mask(map, r).count_ones() as u64;
                assert_eq!((lanes >> (16 * r)) & 0xFFFF, want, "{map:#06x} row {r}");
            }
        }
    }

    #[test]
    fn nonempty_rows_counts_every_pattern() {
        for map in 0..=u16::MAX {
            let want = (0..TILE).filter(|&r| row_mask(map, r) != 0).count() as u32;
            assert_eq!(nonempty_rows(map), want, "{map:#06x}");
        }
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let id: u16 = (0..4).fold(0, |m, i| set_bit(m, i, i));
        for pattern in [0x0001u16, 0xffff, 0x8421, 0x1234, 0xbeef] {
            assert_eq!(bitmap_multiply(id, pattern), pattern);
            assert_eq!(bitmap_multiply(pattern, id), pattern);
        }
    }

    #[test]
    fn zero_annihilates() {
        assert_eq!(bitmap_multiply(0, 0xffff), 0);
        assert_eq!(bitmap_multiply(0xffff, 0), 0);
    }

    #[test]
    fn full_times_full_is_full() {
        assert_eq!(bitmap_multiply(0xffff, 0xffff), 0xffff);
    }

    #[test]
    fn multiply_matches_reference_on_every_single_row_b() {
        // Every `a` against every `b` with exactly one nonempty row: 2^16 x
        // 4 rows x 15 row masks. Any `b` is the OR of its rows, so together
        // with OR-linearity in `b` (below) this covers all 2^32 pairs.
        for a in 0..=u16::MAX {
            for row in 0..TILE {
                for mask in 1..16u16 {
                    let b = mask << (TILE * row);
                    assert_eq!(
                        bitmap_multiply(a, b),
                        bitmap_multiply_reference(a, b),
                        "a={a:#06x} b={b:#06x}"
                    );
                }
            }
        }
    }

    #[test]
    fn multiply_is_or_linear_in_b() {
        let mut state = 0x12345678u32;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            (state & 0xffff) as u16
        };
        for a in 0..=u16::MAX {
            let (b1, b2) = (next(), next());
            assert_eq!(
                bitmap_multiply(a, b1 | b2),
                bitmap_multiply(a, b1) | bitmap_multiply(a, b2),
                "a={a:#06x} b1={b1:#06x} b2={b2:#06x}"
            );
        }
    }

    #[test]
    fn transpose_involution_and_product_rule() {
        let mut state = 0x9e3779b9u32;
        let mut next = move || {
            state = state.wrapping_mul(0x2c9277b5).wrapping_add(0xac564b05);
            (state >> 16) as u16
        };
        for _ in 0..500 {
            let a = next();
            let b = next();
            assert_eq!(bitmap_transpose(bitmap_transpose(a)), a);
            // (AB)^T == B^T A^T for boolean products too.
            assert_eq!(
                bitmap_transpose(bitmap_multiply(a, b)),
                bitmap_multiply(bitmap_transpose(b), bitmap_transpose(a))
            );
        }
    }

    #[test]
    fn from_tile_matches_pattern() {
        let mut tile = [0.0; TILE_AREA];
        tile[0] = 1.0;
        tile[5] = -2.0;
        tile[15] = 1e-300; // Tiny but nonzero counts.
        let m = bitmap_from_tile(&tile);
        assert!(get_bit(m, 0, 0));
        assert!(get_bit(m, 1, 1));
        assert!(get_bit(m, 3, 3));
        assert_eq!(popcount(m), 3);
    }

    #[test]
    fn threshold_matches_paper() {
        assert_eq!(TENSOR_DENSITY_THRESHOLD, 10);
    }
}
