//! The one place sample statistics are computed.
//!
//! Every figure the benchmark prints comes from [`Summary`]: the
//! median, the quartiles (the same "exclusive" method as Python's
//! `statistics.quantiles(data, n=4)`, so spreads computed here and by
//! a script over repeated runs agree), nearest-rank percentiles, and
//! the highest percentile that still has at least [`TAIL_MIN_BEYOND`]
//! samples beyond it.

/// Samples a tail percentile must leave above itself to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentiles tried, highest first, when picking the reported tail.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Order statistics of one sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarises `samples`. Non-finite samples are a bug in the
    /// caller's timing code.
    ///
    /// # Panics
    ///
    /// Panics if a sample is NaN or infinite.
    pub fn new(samples: &[f64]) -> Self {
        assert!(
            samples.iter().all(|s| s.is_finite()),
            "non-finite sample in {samples:?}"
        );
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The median (mean of the two middle samples for an even count);
    /// `None` for no samples.
    pub fn median(&self) -> Option<f64> {
        let n = self.sorted.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(self.sorted[n / 2]),
            _ => Some((self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0),
        }
    }

    /// First and third quartiles by Python's default ("exclusive")
    /// `statistics.quantiles` method; `None` below two samples.
    pub fn quartiles(&self) -> Option<(f64, f64)> {
        let n = self.sorted.len();
        if n < 2 {
            return None;
        }
        let cut = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (self.sorted[j - 1] * (4.0 - delta) + self.sorted[j] * delta) / 4.0
        };
        Some((cut(1), cut(3)))
    }

    /// Nearest-rank percentile `p` (0 < p <= 100); `None` for no
    /// samples.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        Some(self.sorted[Self::rank(p, n) - 1])
    }

    /// The highest of 99.9/99/95/90/75/50 whose nearest-rank value has
    /// at least [`TAIL_MIN_BEYOND`] samples above its rank, as
    /// `(percentile, value)`; `None` when even the median has fewer.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let n = self.sorted.len();
        TAIL_CANDIDATES
            .iter()
            .find(|&&p| n > 0 && n - Self::rank(p, n) >= TAIL_MIN_BEYOND)
            .map(|&p| (p, self.sorted[Self::rank(p, n) - 1]))
    }

    /// 1-based nearest rank of percentile `p` among `n` samples.
    fn rank(p: f64, n: usize) -> usize {
        ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
    }

    /// One JSON object: count, median, quartiles, tail, min and max.
    pub fn to_json(&self) -> String {
        let num = |v: Option<f64>| v.map_or_else(|| "null".to_string(), |v| format!("{v}"));
        let (q1, q3) = self.quartiles().unzip();
        let (tail_p, tail_v) = self.tail().unzip();
        format!(
            "{{\"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"tail_pct\": {}, \
             \"tail\": {}, \"min\": {}, \"max\": {}}}",
            self.len(),
            num(self.median()),
            num(q1),
            num(q3),
            num(tail_p),
            num(tail_v),
            num(self.sorted.first().copied()),
            num(self.sorted.last().copied()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        // Deliberately unsorted: 1..=n in a scrambled order.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v.swap(0, n / 2);
        v
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(Summary::new(&[3.0, 1.0, 2.0]).median(), Some(2.0));
        assert_eq!(Summary::new(&[4.0, 1.0, 3.0, 2.0]).median(), Some(2.5));
        assert_eq!(Summary::new(&[7.0]).median(), Some(7.0));
        assert_eq!(Summary::new(&[]).median(), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 10), n=4) == [2.5, 5.0, 7.5]
        assert_eq!(Summary::new(&seq(9)).quartiles(), Some((2.5, 7.5)));
        // statistics.quantiles(range(1, 9), n=4) == [2.25, 4.5, 6.75]
        assert_eq!(Summary::new(&seq(8)).quartiles(), Some((2.25, 6.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(Summary::new(&[2.0, 1.0]).quartiles(), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(Summary::new(&seq(3)).quartiles(), Some((1.0, 3.0)));
        assert_eq!(Summary::new(&[5.0]).quartiles(), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = Summary::new(&seq(10));
        assert_eq!(s.percentile(90.0), Some(9.0));
        assert_eq!(s.percentile(91.0), Some(10.0));
        assert_eq!(s.percentile(100.0), Some(10.0));
        assert_eq!(s.percentile(0.1), Some(1.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 100 samples: p90 is rank 90 with exactly 10 above it.
        assert_eq!(Summary::new(&seq(100)).tail(), Some((90.0, 90.0)));
        // 101 samples: p90 is rank 91, still 10 above.
        assert_eq!(Summary::new(&seq(101)).tail(), Some((90.0, 91.0)));
        // 1000 samples: p99 is rank 990, 10 above.
        assert_eq!(Summary::new(&seq(1000)).tail(), Some((99.0, 990.0)));
        // 20 samples: only the median qualifies.
        assert_eq!(Summary::new(&seq(20)).tail(), Some((50.0, 10.0)));
        // 19 and 11 samples: nothing qualifies.
        assert_eq!(Summary::new(&seq(19)).tail(), None);
        assert_eq!(Summary::new(&seq(11)).tail(), None);
        assert_eq!(Summary::new(&[]).tail(), None);
    }

    #[test]
    fn json_names_every_statistic() {
        let json = Summary::new(&seq(4)).to_json();
        assert_eq!(
            json,
            "{\"n\": 4, \"median\": 2.5, \"q1\": 1.25, \"q3\": 3.75, \"tail_pct\": null, \
             \"tail\": null, \"min\": 1, \"max\": 4}"
        );
    }
}
