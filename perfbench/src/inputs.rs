//! Inputs. The matrices are the evaluation suite's stand-ins at
//! [`Scale::Small`], the scale the repository's own wall-clock bench runs,
//! and value-perturbed copies of them where a workload needs several
//! operators of one pattern. The run seed draws right-hand sides, initial
//! states and sources, so different seeds give different inputs of the
//! same cost.

use amgt_sparse::suite::{self, Scale};
use amgt_sparse::Csr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of the `i`-th input drawn from the run seed.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    mix(seed ^ mix(i))
}

/// SplitMix64's finalizer: a well-mixed 64-bit hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The suite matrix `name` at [`Scale::Small`].
pub fn suite_matrix(name: &str) -> Csr {
    suite::generate(name, Scale::Small).unwrap_or_else(|e| panic!("{e}"))
}

/// Scale every off-diagonal coupling by a factor in `[0.8, 1.2]` that is a
/// symmetric function of its `(row, col)` pair and the seed, then restore
/// each diagonal to the same margin over its row's off-diagonal sum. The
/// result stays symmetric and diagonally dominant.
pub fn jitter(a: &Csr, seed: u64) -> Csr {
    let mut out = a.clone();
    for r in 0..a.nrows() {
        let span = a.row_ptr[r]..a.row_ptr[r + 1];
        let (mut old_off, mut new_off, mut diag_at) = (0.0, 0.0, None);
        for i in span {
            let c = a.col_idx[i] as usize;
            if c == r {
                diag_at = Some(i);
                continue;
            }
            let (lo, hi) = (r.min(c) as u64, r.max(c) as u64);
            let h = mix(seed ^ mix(lo.wrapping_mul(0x1_0000_0001) ^ hi));
            let f = 0.8 + 0.4 * ((h >> 11) as f64 / (1u64 << 53) as f64);
            old_off += a.vals[i].abs();
            out.vals[i] = a.vals[i] * f;
            new_off += out.vals[i].abs();
        }
        if let Some(d) = diag_at {
            out.vals[d] = a.vals[d] - old_off + new_off;
        }
    }
    out
}

/// A right-hand side: a smooth load plus seeded noise.
pub fn rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let phase = rng.gen_range(0.0..6.0);
    (0..n)
        .map(|i| 1.0 + 0.5 * (i as f64 * 0.013 + phase).sin() + rng.gen_range(-0.125..0.125))
        .collect()
}

/// `||b - A x|| / ||b||`, computed independently of the solver.
pub fn relative_residual(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.matvec(x);
    let r: f64 = ax.iter().zip(b).map(|(p, q)| (q - p) * (q - p)).sum();
    let nb: f64 = b.iter().map(|v| v * v).sum();
    (r / nb.max(f64::MIN_POSITIVE)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = suite_matrix("cant");
        let (b, c) = (jitter(&a, 7), jitter(&a, 7));
        assert_eq!(b.vals, c.vals);
        let d = jitter(&a, 8);
        assert_eq!(b.col_idx, d.col_idx, "jitter never changes the pattern");
        assert_ne!(b.vals, d.vals);
        assert_eq!(rhs(50, 3), rhs(50, 3));
        assert_ne!(rhs(50, 3), rhs(50, 4));
    }

    #[test]
    fn jitter_keeps_symmetry_and_dominance() {
        let a = jitter(&suite_matrix("parabolic_fem"), 11);
        assert!(a.is_symmetric(1e-12));
        for r in 0..a.nrows() {
            let (cols, vals) = a.row(r);
            let off: f64 = cols
                .iter()
                .zip(vals)
                .filter(|(&c, _)| c as usize != r)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(a.get(r, r).unwrap() > off);
        }
    }
}
