//! Medians, percentiles and the rule for which tail percentile a sample
//! can support.

/// A measured value across repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub samples: usize,
}

impl Summary {
    /// A value measured once (a count, or a figure over the whole run).
    pub fn single(value: f64) -> Self {
        Summary {
            median: value,
            min: value,
            max: value,
            samples: 1,
        }
    }

    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "a summary needs a sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("measured values are finite"));
        Summary {
            median: median_sorted(&sorted),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            samples: sorted.len(),
        }
    }
}

/// The share of its throughput a traced loop lost, from repetitions that
/// alternated with untraced ones: 1 - median(traced) / median(plain).
pub fn lost_share(plain: &[f64], traced: &[f64]) -> f64 {
    1.0 - Summary::of(traced).median / Summary::of(plain).median
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The `p`-th percentile (nearest rank) of an ascending sample. Whole
/// percents, so that the rank is exact integer arithmetic.
pub fn percentile_sorted(sorted: &[u64], p: u32) -> u64 {
    assert!(!sorted.is_empty(), "a percentile needs a sample");
    let rank = (sorted.len() * p as usize).div_ceil(100);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts the sample and returns its `p`-th percentile.
pub fn percentile(samples: &mut [u64], p: u32) -> u64 {
    samples.sort_unstable();
    percentile_sorted(samples, p)
}

/// The percentiles a latency tail may be reported at. Nothing beyond p99:
/// on a shared 2-vCPU box the last thousandth is the hypervisor's.
pub const TAIL_LADDER: [u32; 3] = [50, 90, 99];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// samples beyond it, or `None` when even the median does not.
pub fn highest_supported_percentile(samples: usize) -> Option<u32> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&p| samples - (samples * p as usize).div_ceil(100) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50));
        assert_eq!(highest_supported_percentile(99), Some(50));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(999), Some(90));
        assert_eq!(highest_supported_percentile(1_000), Some(99));
        assert_eq!(highest_supported_percentile(1_000_000), Some(99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 50), 50);
        assert_eq!(percentile_sorted(&sorted, 99), 99);
        assert_eq!(percentile_sorted(&sorted, 100), 100);
        assert_eq!(percentile_sorted(&[7], 99), 7);
    }

    #[test]
    fn lost_share_compares_medians() {
        let lost = lost_share(&[100.0, 90.0, 110.0], &[95.0, 200.0, 94.0]);
        assert!((lost - 0.05).abs() < 1e-12);
    }

    #[test]
    fn summary_reports_median_and_range() {
        let s = Summary::of(&[3.0, 1.0, 2.0, 10.0]);
        assert_eq!((s.median, s.min, s.max, s.samples), (2.5, 1.0, 10.0, 4));
    }
}
