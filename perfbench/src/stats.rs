//! Summary statistics of classed latency samples.
//!
//! A workload's requests fall into classes that cost different amounts
//! (matrix family, setup vs resetup step, ...). A quantile taken over the
//! pooled samples would jump between classes as their costs shift, so the
//! typical latency is taken per class and combined as a geometric mean
//! weighted by how often each class occurs.

use std::collections::BTreeMap;

/// One measured duration (seconds) of a request of class `.0`.
pub type Sample = (u32, f64);

/// Linear-interpolated quantile `q` of unsorted values (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Quantile `q` of each class, combined as a count-weighted geometric mean.
pub fn typical(samples: &[Sample], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut classes: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for &(class, v) in samples {
        classes.entry(class).or_default().push(v);
    }
    let log_sum: f64 = classes
        .values()
        .map(|v| v.len() as f64 * quantile(v, q).max(f64::MIN_POSITIVE).ln())
        .sum();
    (log_sum / samples.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn typical_weights_classes_by_count() {
        // Class 0 (three samples of 1) and class 1 (one sample of 16):
        // geomean weighted 3:1 is 16^(1/4) = 2.
        let s = [(0, 1.0), (0, 1.0), (0, 1.0), (1, 16.0)];
        assert!((typical(&s, 0.5) - 2.0).abs() < 1e-12);
        // A class's own spread does not move the others.
        let t = [(0, 1.0), (0, 1.0), (0, 1.0), (1, 16.0), (1, 16.0)];
        assert!((typical(&t, 0.0) - (16f64.powf(2.0 / 5.0))).abs() < 1e-12);
        assert_eq!(typical(&[], 0.5), 0.0);
    }
}
