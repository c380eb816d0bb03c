//! Order statistics for the benchmark's timing samples.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it (choosing-metrics §1): p75 needs 40 samples, p90 100, p99 1000.
pub const MIN_SAMPLES_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile `p` in (0, 1), or `None` when fewer than
/// [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile must be inside (0, 1)");
    let v = sorted(values);
    let rank = ((p * v.len() as f64).ceil() as usize).max(1);
    if rank > v.len() || v.len() - rank < MIN_SAMPLES_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

/// Nearest-rank lower quartile. Interference from other tenants of the
/// machine only ever adds time, so of the order statistics a run offers this
/// one moved least from run to run (about half the spread of the median over
/// 30 runs per workload); it is what the end-to-end time metrics report.
pub fn lower_quartile(values: &[f64]) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((0.25 * v.len() as f64).ceil() as usize).max(1);
    v[rank - 1]
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn lower_quartile_is_nearest_rank() {
        assert_eq!(lower_quartile(&[5.0, 3.0, 4.0]), 3.0);
        assert_eq!(lower_quartile(&[5.0, 3.0, 4.0, 6.0]), 3.0);
        assert_eq!(lower_quartile(&[5.0, 3.0, 4.0, 6.0, 7.0]), 4.0);
        assert_eq!(lower_quartile(&[]), 0.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // p90: 99 samples leave 9 beyond the rank, 100 leave exactly 10
        assert_eq!(tail_percentile(&ramp(99), 0.90), None);
        assert_eq!(tail_percentile(&ramp(100), 0.90), Some(90.0));
        // p75: the boundary is 40 samples
        assert_eq!(tail_percentile(&ramp(39), 0.75), None);
        assert_eq!(tail_percentile(&ramp(40), 0.75), Some(30.0));
        // p99 of 160 samples (the issue's hit count) is not reportable
        assert_eq!(tail_percentile(&ramp(160), 0.99), None);
        assert_eq!(tail_percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(tail_percentile(&[], 0.5), None);
    }
}
