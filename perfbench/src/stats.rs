//! Sample statistics with percentile discipline.
//!
//! Every timing the benchmark reports is a median over many samples taken
//! within one run, and is reported next to its sample count. A tail
//! percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, so `p90` needs at least 100 samples.

/// Fewest samples that must lie beyond a reported percentile.
const MIN_BEYOND: usize = 10;

/// An ordered-on-demand collection of measurements of one population.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut s = self.values.clone();
        s.sort_by(f64::total_cmp);
        s
    }

    /// The median (mean of the two middle values for an even count), or
    /// `None` without samples.
    pub fn median(&self) -> Option<f64> {
        let s = self.sorted();
        let n = s.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(s[n / 2]),
            _ => Some(0.5 * (s[n / 2 - 1] + s[n / 2])),
        }
    }

    /// The nearest-rank `p`-quantile (`0 < p < 1`), or `None` when fewer
    /// than [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let s = self.sorted();
        let n = s.len();
        if n == 0 || !(0.0..1.0).contains(&p) {
            return None;
        }
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        (n - rank >= MIN_BEYOND).then(|| s[rank - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::new();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(of([3.0, 1.0, 2.0]).median(), Some(2.0));
        assert_eq!(of([4.0, 1.0, 3.0, 2.0]).median(), Some(2.5));
        assert_eq!(Samples::new().median(), None);
    }

    #[test]
    fn p90_is_refused_below_one_hundred_samples() {
        let s = of((1..=99).map(f64::from));
        assert_eq!(s.percentile(0.9), None);
        let s = of((1..=100).map(f64::from));
        assert_eq!(s.percentile(0.9), Some(90.0));
    }

    #[test]
    fn every_emitted_percentile_has_ten_samples_beyond_it() {
        for n in 1..400usize {
            let s = of((0..n).map(|v| v as f64));
            for p in [0.5, 0.9, 0.95, 0.99] {
                if let Some(v) = s.percentile(p) {
                    let beyond = (0..n).filter(|&x| x as f64 > v).count();
                    assert!(beyond >= MIN_BEYOND, "n={n} p={p} beyond={beyond}");
                }
            }
        }
    }

    #[test]
    fn median_ignores_insertion_order() {
        let a = of([5.0, 1.0, 9.0, 2.0, 7.0]);
        let b = of([9.0, 7.0, 5.0, 2.0, 1.0]);
        assert_eq!(a.median(), b.median());
        assert_eq!(a.len(), 5);
        assert_eq!(a.sum(), 24.0);
    }
}
