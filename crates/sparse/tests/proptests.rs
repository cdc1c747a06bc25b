//! Property-based tests of the sparse substrate: CSR algebra, mBSR
//! conversions, bitmap algebra and Matrix Market round-trips.

use amgt_sparse::bitmap::{bitmap_multiply, bitmap_multiply_reference, bitmap_transpose, popcount};
use amgt_sparse::mm::{read_matrix_market_str, write_matrix_market};
use amgt_sparse::{Csr, Mbsr};
use proptest::prelude::*;

fn arb_csr(max_n: usize, max_per_row: usize) -> impl Strategy<Value = Csr> {
    (1..max_n, 1..max_per_row, any::<u64>())
        .prop_map(|(n, k, seed)| amgt_sparse::gen::random_sparse(n, k, seed))
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
        prop_assert_eq!(m.to_csr(), a.clone());
        prop_assert_eq!(m.nnz(), a.nnz());
        // Bitmap invariants.
        prop_assert!(m.nonempty_tile_rows() <= m.n_blocks() * 4);
        prop_assert!(m.nonempty_tile_rows() * 4 >= m.nnz());
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
