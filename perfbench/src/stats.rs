//! Order statistics over run timings.
//!
//! Percentiles are nearest-rank: the `p`-th percentile of `N` sorted samples
//! is the sample at 1-based rank `⌈p·N/100⌉`, so every reported value is one
//! that was actually measured.

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// The percentile ladder the tail is chosen from: every whole percentile
/// from 50 to 90. Above p90 a tail over a ten-second run list reads the
/// host's slow phases rather than the program: on `model-check` p94 fell at
/// the 70th percentile of the slowest topology's times, where a slow phase
/// moved it by a quarter from one set of executions to the next, while p90
/// falls at that topology's median.
fn ladder() -> impl DoubleEndedIterator<Item = f64> {
    (50..=90).map(f64::from)
}

/// 1-based nearest rank of percentile `p` among `n` samples. The epsilon
/// keeps a percentile without an exact binary form, such as `99.9 % of
/// 10 000`, at its whole rank (9990).
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` of `samples` (any order).
///
/// # Panics
///
/// Panics on an empty slice: every measured pass has at least one run.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let sorted = sorted(samples);
    sorted[rank(p, sorted.len()) - 1]
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The reported tail of a timing distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile was chosen.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

/// The highest percentile of the ladder (p50–p90) with at least [`TAIL_BEYOND`]
/// samples beyond its rank, or `None` when there are too few samples for
/// even the median to qualify (fewer than `2 × TAIL_BEYOND`).
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    let p = ladder()
        .rev()
        .find(|&p| n >= 1 && n - rank(p, n) >= TAIL_BEYOND)?;
    let sorted = sorted(samples);
    let r = rank(p, n);
    Some(Tail {
        percentile: p,
        value: sorted[r - 1],
        beyond: n - r,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helpers cannot rely on sorted input.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_up_to_p90_with_ten_samples_beyond() {
        let t = tail(&ramp(100)).expect("100 samples");
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        let t = tail(&ramp(50)).expect("50 samples");
        assert_eq!((t.percentile, t.value, t.beyond), (80.0, 40.0, 10));
        // 175 samples: p94 would leave 10 beyond, but the ladder stops at p90.
        let t = tail(&ramp(175)).expect("175 samples");
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 158.0, 17));
        let t = tail(&ramp(10_000)).expect("10000 samples");
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 9000.0, 1000));
        // 63 samples: p84 has rank 53 and 10 beyond; p85 has rank 54.
        let t = tail(&ramp(63)).expect("63 samples");
        assert_eq!((t.percentile, t.beyond), (84.0, 10));
    }

    #[test]
    fn tail_needs_twenty_samples() {
        assert_eq!(tail(&ramp(19)), None);
        let t = tail(&ramp(20)).expect("20 samples");
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn nearest_rank_median_and_mean() {
        assert_eq!(median(&ramp(5)), 3.0);
        assert_eq!(median(&ramp(4)), 2.0);
        assert_eq!(percentile(&ramp(10), 100.0), 10.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
