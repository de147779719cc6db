//! Order statistics over timing samples.

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest percentile of a sample with at least [`TAIL_BEYOND`]
/// samples above it.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Its percentile: the share of samples at or below it, in percent.
    pub percentile: f64,
    /// Samples strictly above its rank.
    pub beyond: usize,
}

/// Samples a tail value must leave above it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of `values` that has [`TAIL_BEYOND`] samples
/// beyond it. Below `2 * TAIL_BEYOND + 1` samples that rank would fall
/// under the median, so the median is reported as such (percentile 50,
/// with the count above the middle rank).
#[must_use]
pub fn tail(values: &[f64]) -> Tail {
    let sorted = sorted(values);
    let n = sorted.len();
    if n <= 2 * TAIL_BEYOND {
        return Tail {
            value: median(values),
            percentile: 50.0,
            beyond: n / 2,
        };
    }
    let rank = n - 1 - TAIL_BEYOND;
    Tail {
        value: sorted[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        beyond: TAIL_BEYOND,
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);
    }

    #[test]
    fn small_sample_tail_is_its_median() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!(t.value, 3.0);
        assert_eq!(t.percentile, 50.0);
        // 20 samples: ten beyond would sit below the median.
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&values).value, 10.5);
        let values: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&values).value, 11.0);
    }
}
