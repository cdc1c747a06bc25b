//! Property-based tests of the sparse substrate: CSR algebra, mBSR
//! conversions, bitmap algebra and Matrix Market round-trips.

use amgt_sparse::bitmap::{
    bitmap_multiply, bitmap_multiply_reference, bitmap_transpose, popcount, TILE, TILE_AREA,
};
use amgt_sparse::mm::{read_matrix_market_str, write_matrix_market};
use amgt_sparse::{Csr, Mbsr};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

fn arb_csr(max_n: usize, max_per_row: usize) -> impl Strategy<Value = Csr> {
    (1..max_n, 1..max_per_row, any::<u64>())
        .prop_map(|(n, k, seed)| amgt_sparse::gen::random_sparse(n, k, seed))
}

/// A random `nrows x ncols` CSR matrix, either side possibly 0 or not a
/// multiple of 4: about a fifth of the rows and of the columns are empty,
/// and the rest hold an entry with probability `density`. Values are
/// drawn from `values`, which may hold explicit zeros of both signs.
fn rect_csr(nrows: usize, ncols: usize, density: f64, values: &[f64], seed: u64) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    let empty_col: Vec<bool> = (0..ncols).map(|_| rng.gen_bool(0.2)).collect();
    let mut trips = Vec::new();
    for r in 0..nrows {
        if rng.gen_bool(0.2) {
            continue;
        }
        for (c, _) in empty_col.iter().enumerate().filter(|(_, &e)| !e) {
            if rng.gen_bool(density) {
                trips.push((r, c, values[rng.gen_range(0..values.len())]));
            }
        }
    }
    Csr::from_triplets(nrows, ncols, &trips)
}

/// Values with explicit zeros of both signs among them.
const WITH_ZEROS: [f64; 6] = [0.0, -0.0, 1.0, -2.5, 1e-300, 3.75e10];

/// Rectangular shapes like the interpolation P (n x nc), the restriction R
/// and the extended+i operands, 0 x n and n x 0 included.
fn arb_rect_csr() -> impl Strategy<Value = Csr> {
    (0usize..70, 0usize..70, 0.02f64..0.6, any::<u64>())
        .prop_map(|(nr, nc, density, seed)| rect_csr(nr, nc, density, &WITH_ZEROS, seed))
}

/// Per-entry reference of [`Mbsr::from_csr`]: every stored entry, zeros
/// included, sets its bit and its value slot in the tile of its
/// (block-row, block-column) pair; tiles in block-row-major order.
fn reference_mbsr(a: &Csr) -> Mbsr {
    let mut tiles: BTreeMap<(usize, u32), (u16, [f64; TILE_AREA])> = BTreeMap::new();
    for r in 0..a.nrows() {
        let (cols, vals) = a.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            let tile = tiles
                .entry((r / TILE, c / TILE as u32))
                .or_insert((0, [0.0; TILE_AREA]));
            let slot = (r % TILE) * TILE + c as usize % TILE;
            tile.0 |= 1 << slot;
            tile.1[slot] = v;
        }
    }
    let blk_rows = a.nrows().div_ceil(TILE);
    let mut blc_ptr = vec![0; blk_rows + 1];
    let (mut idx, mut map, mut val) = (Vec::new(), Vec::new(), Vec::new());
    for (&(br, bc), (m, v)) in &tiles {
        blc_ptr[br + 1] += 1;
        idx.push(bc);
        map.push(*m);
        val.extend_from_slice(v);
    }
    for br in 0..blk_rows {
        blc_ptr[br + 1] += blc_ptr[br];
    }
    let blk_cols = a.ncols().div_ceil(TILE);
    Mbsr::from_raw_parts(
        a.nrows(),
        a.ncols(),
        blk_rows,
        blk_cols,
        blc_ptr,
        idx,
        map,
        val,
    )
}

/// Per-entry reference of [`Mbsr::to_csr`]: one entry per set bit.
fn reference_csr(m: &Mbsr) -> Csr {
    let mut trips = Vec::new();
    for br in 0..m.blk_rows() {
        for b in m.blc_ptr[br]..m.blc_ptr[br + 1] {
            for slot in (0..TILE_AREA).filter(|&s| m.blc_map[b] & (1 << s) != 0) {
                let c = m.blc_idx[b] as usize * TILE + slot % TILE;
                trips.push((br * TILE + slot / TILE, c, m.tile(b)[slot]));
            }
        }
    }
    // No duplicates, so `from_triplets` only sorts each row.
    Csr::from_triplets(m.nrows(), m.ncols(), &trips)
}

/// `got == want` field for field, values compared by their bits (so a
/// `-0.0` is not a `0.0`).
fn assert_same_mbsr(got: &Mbsr, want: &Mbsr) {
    assert_eq!(
        (got.nrows(), got.ncols(), got.blk_rows(), got.blk_cols()),
        (want.nrows(), want.ncols(), want.blk_rows(), want.blk_cols())
    );
    assert_eq!(&got.blc_ptr, &want.blc_ptr);
    assert_eq!(&got.blc_idx, &want.blc_idx);
    assert_eq!(&got.blc_map, &want.blc_map);
    assert_eq!(bits(&got.blc_val), bits(&want.blc_val));
}

/// `got == want` with values compared by their bits.
fn assert_same_csr(got: &Csr, want: &Csr) {
    assert_eq!((got.nrows(), got.ncols()), (want.nrows(), want.ncols()));
    assert_eq!(&got.row_ptr, &want.row_ptr);
    assert_eq!(&got.col_idx, &want.col_idx);
    assert_eq!(bits(&got.vals), bits(&want.vals));
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The edge cases the conversion properties must cover, each pinned once
/// so no draw of the generators can skip it: empty shapes, ragged shapes
/// on either side, stored zeros of both signs, and a product that cancels.
#[test]
fn conversions_match_reference_on_pinned_edge_shapes() {
    let shapes = [
        (0, 0),
        (0, 9),
        (9, 0),
        (1, 1),
        (5, 3),
        (3, 5),
        (8, 8),
        (17, 6),
        (6, 17),
    ];
    for (seed, &(nr, nc)) in shapes.iter().enumerate() {
        let a = rect_csr(nr, nc, 0.5, &WITH_ZEROS, seed as u64);
        let m = Mbsr::from_csr(&a);
        m.validate();
        assert_same_mbsr(&m, &reference_mbsr(&a));
        assert_same_csr(&m.to_csr(), &a);
    }

    let zeros = Csr::from_triplets(5, 6, &[(0, 0, 0.0), (4, 5, -0.0), (2, 3, 1.0)]);
    let m = Mbsr::from_csr(&zeros);
    assert_eq!(m.blc_map, vec![0b1000_0000_0001, 0b10]);
    assert_eq!(m.tile(1)[1].to_bits(), (-0.0f64).to_bits());
    assert_same_csr(&m.to_csr(), &zeros);

    // [1 1] * [1; -1] = [0]: a stored zero with its bit set.
    let a = Csr::from_triplets(1, 2, &[(0, 0, 1.0), (0, 1, 1.0)]);
    let b = Csr::from_triplets(2, 1, &[(0, 0, 1.0), (1, 0, -1.0)]);
    let c = Mbsr::from_csr(&a.matmul(&b));
    assert_eq!((c.blc_map[0], c.tile(0)[0]), (1, 0.0));
    assert_same_mbsr(&Mbsr::from_csr(&c.to_csr()), &c);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involution(a in arb_csr(80, 8)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_swaps_matvec((a, seed) in (arb_csr(60, 6), any::<u64>())) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..a.nrows()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y: Vec<f64> = (0..a.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // x^T (A y) == (A^T x)^T y
        let ay = a.matvec(&y);
        let atx = a.transpose().matvec(&x);
        let lhs: f64 = x.iter().zip(&ay).map(|(u, v)| u * v).sum();
        let rhs: f64 = atx.iter().zip(&y).map(|(u, v)| u * v).sum();
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    }

    #[test]
    fn add_is_commutative_and_identity_with_zero(a in arb_csr(60, 6)) {
        let z = Csr::zero(a.nrows(), a.ncols());
        prop_assert_eq!(a.add(&z), a.clone());
        let b = a.transpose().transpose(); // A copy through a different path.
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn matmul_matches_matvec_composition((a, seed) in (arb_csr(40, 5), any::<u64>())) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let b = amgt_sparse::gen::random_sparse(a.ncols(), 4, seed ^ 0xABCD);
        let x: Vec<f64> = (0..b.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let via_product = a.matmul(&b).matvec(&x);
        let via_composition = a.matvec(&b.matvec(&x));
        for (u, v) in via_product.iter().zip(&via_composition) {
            prop_assert!((u - v).abs() < 1e-9 * (1.0 + v.abs()));
        }
    }

    #[test]
    fn mbsr_roundtrip(a in arb_csr(120, 10)) {
        let m = Mbsr::from_csr(&a);
        m.validate();
        assert_same_mbsr(&m, &reference_mbsr(&a));
        prop_assert_eq!(m.to_csr(), a.clone());
        prop_assert_eq!(m.nnz(), a.nnz());
        // Bitmap invariants.
        prop_assert!(m.nonempty_tile_rows() <= m.n_blocks() * 4);
        prop_assert!(m.nonempty_tile_rows() * 4 >= m.nnz());
    }

    #[test]
    fn from_csr_matches_per_entry_reference(a in arb_rect_csr()) {
        let m = Mbsr::from_csr(&a);
        m.validate();
        assert_same_mbsr(&m, &reference_mbsr(&a));
        prop_assert_eq!(m.nnz(), a.nnz());
    }

    #[test]
    fn to_csr_matches_per_entry_reference(a in arb_rect_csr()) {
        let m = reference_mbsr(&a);
        let back = m.to_csr();
        assert_same_csr(&back, &reference_csr(&m));
        assert_same_csr(&back, &a);
    }

    /// A product of +-1 matrices cancels exactly, leaving stored zeros in
    /// its pattern; they keep their bits through CSR and back.
    #[test]
    fn cancelled_product_round_trips_through_csr(
        (n, k, m, density, seed) in (0usize..40, 0usize..40, 0usize..40, 0.05f64..0.5, any::<u64>())
    ) {
        let a = rect_csr(n, k, density, &[1.0, -1.0], seed);
        let b = rect_csr(k, m, density, &[1.0, -1.0], seed ^ 0x9E37_79B9);
        let c = Mbsr::from_csr(&a.matmul(&b));
        assert_same_mbsr(&c, &reference_mbsr(&a.matmul(&b)));
        assert_same_mbsr(&Mbsr::from_csr(&c.to_csr()), &c);
    }

    #[test]
    fn mbsr_matvec_matches_csr((a, seed) in (arb_csr(90, 7), any::<u64>())) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..a.ncols()).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let m = Mbsr::from_csr(&a);
        let ym = m.matvec_reference(&x);
        let yc = a.matvec(&x);
        for (u, v) in ym.iter().zip(&yc) {
            prop_assert!((u - v).abs() < 1e-10 * (1.0 + v.abs()));
        }
    }

    #[test]
    fn bitmap_multiply_matches_reference(a in any::<u16>(), b in any::<u16>()) {
        prop_assert_eq!(bitmap_multiply(a, b), bitmap_multiply_reference(a, b));
    }

    #[test]
    fn bitmap_multiply_is_associative(a in any::<u16>(), b in any::<u16>(), c in any::<u16>()) {
        prop_assert_eq!(
            bitmap_multiply(bitmap_multiply(a, b), c),
            bitmap_multiply(a, bitmap_multiply(b, c))
        );
    }

    #[test]
    fn bitmap_transpose_product_rule(a in any::<u16>(), b in any::<u16>()) {
        prop_assert_eq!(
            bitmap_transpose(bitmap_multiply(a, b)),
            bitmap_multiply(bitmap_transpose(b), bitmap_transpose(a))
        );
        prop_assert_eq!(popcount(bitmap_transpose(a)), popcount(a));
    }

    #[test]
    fn matrix_market_roundtrip(a in arb_csr(50, 6)) {
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &a).unwrap();
        let back = read_matrix_market_str(std::str::from_utf8(&buf).unwrap()).unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn pruning_never_grows(a in arb_csr(60, 8), t in 0.0f64..1.0) {
        let p = a.pruned(t);
        prop_assert!(p.nnz() <= a.nnz());
        // All diagonal entries survive.
        for r in 0..a.nrows() {
            if a.get(r, r).is_some() {
                prop_assert!(p.get(r, r).is_some());
            }
        }
    }
}
