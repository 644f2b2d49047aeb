//! Exact order statistics over raw samples. Every percentile the benchmark
//! reports comes from here: nearest rank over the full sample, never a
//! bucketed histogram, so a reported p90 is a latency some request
//! actually had.

/// The `p`-th percentile (`0 < p <= 100`) by nearest rank: the smallest
/// sample such that at least `p`% of the samples are less than or equal
/// to it. `None` on an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 100.0, "percentile rank {p} out of (0, 100]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// [`percentile`] at 50.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Arithmetic mean; `None` on an empty sample.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Completions per second of a closed loop that keeps `outstanding`
/// requests in flight, from the latencies (seconds) of the requests it
/// completed (Little's law: throughput = outstanding / mean latency).
/// Unlike a completion count per window, it is not quantised.
pub fn closed_loop_rate(latencies: &[f64], outstanding: usize) -> Option<f64> {
    mean(latencies).map(|m| outstanding as f64 / m)
}

/// The favourable quartile of per-window values: the 25th percentile when
/// lower is better, the 75th when higher is better. Neighbours on a shared
/// host slow whole stretches of seconds at a time; a statistic taken per
/// window and read at this quartile moves only if most of the run was
/// disturbed.
pub fn favourable(per_window: &[f64], lower_is_better: bool) -> Option<f64> {
    percentile(per_window, if lower_is_better { 25.0 } else { 75.0 })
}

/// Split timed samples `(when, value)` into consecutive windows of
/// `width` (window `i` holds `i·width <= when < (i+1)·width`) and return
/// `stat` of each non-empty window's values, in window order.
pub fn per_window(
    samples: &[(f64, f64)],
    width: f64,
    stat: impl Fn(&[f64]) -> Option<f64>,
) -> Vec<f64> {
    let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for &(when, value) in samples {
        windows
            .entry((when.max(0.0) / width) as u64)
            .or_default()
            .push(value);
    }
    windows.values().filter_map(|v| stat(v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_known_vector() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 99.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(1.0));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[3.0, 1.0]), Some(1.0));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(closed_loop_rate(&[0.04, 0.06], 4), Some(80.0));
        assert_eq!(closed_loop_rate(&[], 4), None);
    }

    #[test]
    fn percentiles_are_ordered_and_bounded_by_the_max() {
        let v: Vec<f64> = (0..997).map(|i| ((i * 7919) % 1009) as f64).collect();
        let max = v.iter().copied().fold(f64::MIN, f64::max);
        let (p50, p90, p99) = (
            percentile(&v, 50.0).unwrap(),
            percentile(&v, 90.0).unwrap(),
            percentile(&v, 99.0).unwrap(),
        );
        assert!(p50 <= p90 && p90 <= p99 && p99 <= max);
        assert_eq!(percentile(&v, 100.0), Some(max));
        assert!(v.contains(&p90), "a percentile is an observed sample");
    }

    #[test]
    fn empty_input_has_no_percentile() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[]), None);
        assert!(per_window(&[], 1.0, median).is_empty());
        assert_eq!(favourable(&[], true), None);
    }

    #[test]
    fn windows_split_by_time_and_a_noisy_window_does_not_move_the_quartile() {
        // Four 1-second windows; the third is a burst of slow samples.
        let samples = [
            (0.1, 1.0),
            (0.5, 3.0),
            (1.2, 2.0),
            (2.2, 90.0),
            (2.7, 99.0),
            (3.0, 2.0),
            (3.9, 4.0),
        ];
        let maxes = per_window(&samples, 1.0, |v| percentile(v, 100.0));
        assert_eq!(maxes, vec![3.0, 2.0, 99.0, 4.0]);
        assert_eq!(favourable(&maxes, true), Some(2.0));
        assert_eq!(favourable(&maxes, false), Some(4.0));
        assert_eq!(
            per_window(&samples, 10.0, |v| Some(v.len() as f64)),
            vec![7.0]
        );
    }
}
