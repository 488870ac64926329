//! Exact order statistics over `u64` samples: [`HistogramSummary`].

/// Exact order statistics of one histogram, nearest-rank semantics
/// (`ceil(q·n)`-th smallest sample, 1-based), per-mille resolution so
/// p999 is exact too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean, rounded down.
    pub mean: u64,
    /// Median (nearest-rank).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

impl HistogramSummary {
    /// Summarises `samples`; `None` when empty.
    pub fn of(samples: &[u64]) -> Option<HistogramSummary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let total: u128 = sorted.iter().map(|v| *v as u128).sum();
        // Nearest-rank at per-mille resolution: ceil(permille/1000 · n).
        let rank = |permille: usize| {
            let idx = (permille * n).div_ceil(1000).max(1) - 1;
            sorted[idx.min(n - 1)]
        };
        Some(HistogramSummary {
            count: n as u64,
            min: sorted[0],
            max: sorted[n - 1],
            mean: (total / n as u128) as u64,
            p50: rank(500),
            p95: rank(950),
            p99: rank(990),
            p999: rank(999),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_yields_none() {
        assert_eq!(HistogramSummary::of(&[]), None);
    }

    #[test]
    fn single_sample_is_every_statistic() {
        let s = HistogramSummary::of(&[7]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.min, 7);
        assert_eq!(s.max, 7);
        assert_eq!(s.mean, 7);
        assert_eq!(s.p50, 7);
        assert_eq!(s.p99, 7);
        assert_eq!(s.p999, 7);
    }

    #[test]
    fn known_distribution() {
        let samples: Vec<u64> = (1..=100).collect();
        let s = HistogramSummary::of(&samples).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p95, 95);
        assert_eq!(s.p99, 99);
        // ceil(0.999 · 100) = 100.
        assert_eq!(s.p999, 100);
        assert_eq!(s.mean, 50); // 50.5 rounded down
    }

    #[test]
    fn p999_distinguishes_the_tail_at_thousand_samples() {
        let samples: Vec<u64> = (1..=1000).collect();
        let s = HistogramSummary::of(&samples).unwrap();
        assert_eq!(s.p99, 990);
        assert_eq!(s.p999, 999);
        assert_eq!(s.max, 1000);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let s = HistogramSummary::of(&[30, 10, 20]).unwrap();
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 30);
        assert_eq!(s.p50, 20);
    }

    #[test]
    fn even_count_median_is_the_lower_middle() {
        // Nearest-rank: ceil(0.5 · 4) = 2nd smallest.
        let s = HistogramSummary::of(&[1, 2, 3, 4]).unwrap();
        assert_eq!(s.p50, 2);
    }

    #[test]
    fn odd_count_median_is_the_middle() {
        let s = HistogramSummary::of(&[1, 2, 3, 4, 5]).unwrap();
        assert_eq!(s.p50, 3);
    }
}
