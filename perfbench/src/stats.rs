//! Order statistics over timing samples.

/// A sorted copy of `samples`.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for even counts); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of a sample: the highest order statistic that still has at
/// least ten samples beyond it; `None` when there are too few samples.
pub fn tail(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    v.len().checked_sub(11).map(|i| v[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let value = tail(&samples).expect("100 samples have a tail");
        assert_eq!(value, 90.0);
        assert_eq!(samples.iter().filter(|&&s| s > value).count(), 10);
    }
}
