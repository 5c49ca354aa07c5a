//! Sample summaries: the tail-percentile picker and the quartile report.

/// 1-based nearest-rank position of the `permille`/1000 quantile among `n`
/// samples (integer arithmetic: 990 of 1000 must not round up to 991).
fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank quantile of an ascending-sorted sample (0 when empty).
pub fn percentile_sorted(sorted: &[f64], permille: usize) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[rank(n, permille) - 1],
    }
}

/// Samples strictly beyond the nearest-rank quantile position.
fn beyond(n: usize, permille: usize) -> usize {
    n.saturating_sub(rank(n, permille))
}

/// The highest of p99 / p90 with at least ten samples beyond it, as a
/// percent (99 or 90); `50` when even p90 is not supported — the tail then
/// degenerates to the median rather than reporting a single outlier.
pub fn tail_percent(n: usize) -> u32 {
    if beyond(n, 990) >= 10 {
        99
    } else if beyond(n, 900) >= 10 {
        90
    } else {
        50
    }
}

/// Median, tail and (informational) p999 of one timing series, taken over
/// the time-ordered windows it was collected in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    pub samples: usize,
    /// The windows' medians, and their values at the pinned tail
    /// percentile, averaged without the lowest and the highest window.
    pub p50: f64,
    pub tail: f64,
    /// The same two in the best window: information, never gated.
    pub best_p50: f64,
    pub best_tail: f64,
    /// The percentile the smallest window supports ([`tail_percent`]); a
    /// pinned percentile above it is flagged in the output.
    pub supported_percent: u32,
    /// p999 over all samples pooled: information, never gated.
    pub p999: f64,
}

impl Timing {
    /// Each quantile is computed per window, and the mean over the windows
    /// without the lowest and the highest one is reported. The (shared,
    /// virtual) machine this runs on stalls for 50–150 ms at a time and
    /// switches between two speeds a quarter apart every few seconds:
    /// dropping the extremes keeps a stall, which lands in one window, out
    /// of the result — it still shows in `p999` and in the late share — and
    /// averaging the rest, rather than taking their median, keeps the result
    /// from jumping between the two speeds when the windows split evenly
    /// between them. The best window is kept as information; it is not the
    /// reported value because cross-thread wake-ups in a guest come in a
    /// fast (polling) and a 10× slower (halted) mode, and one lucky window
    /// would decide a sharded read latency. Pass a single window to pool
    /// all samples (churn, whose windows would be too small for a
    /// percentile of their own).
    ///
    /// The tail percentile is pinned per series, from the sample counts
    /// seen when the benchmark was defined: a metric whose definition moved
    /// with the sample count would change meaning whenever the program got
    /// faster or slower.
    pub fn of(mut windows: Vec<Vec<f64>>, pinned_percent: u32) -> Self {
        windows.retain(|w| !w.is_empty());
        for w in &mut windows {
            w.sort_by(f64::total_cmp);
        }
        let per_window = |permille: usize| -> Vec<f64> {
            windows
                .iter()
                .map(|w| percentile_sorted(w, permille))
                .collect()
        };
        let lowest = |v: &[f64]| v.iter().copied().reduce(f64::min).unwrap_or(0.0);
        let (p50s, tails) = (per_window(500), per_window(pinned_percent as usize * 10));
        let mut pooled: Vec<f64> = windows.iter().flatten().copied().collect();
        pooled.sort_by(f64::total_cmp);
        Self {
            samples: pooled.len(),
            p50: trimmed_mean(&p50s),
            tail: trimmed_mean(&tails),
            best_p50: lowest(&p50s),
            best_tail: lowest(&tails),
            supported_percent: tail_percent(windows.iter().map(Vec::len).min().unwrap_or(0)),
            p999: percentile_sorted(&pooled, 999),
        }
    }
}

/// Mean without the lowest and the highest value (plain mean below three
/// values, 0 when empty).
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = if v.len() >= 3 {
        &v[1..v.len() - 1]
    } else {
        &v[..]
    };
    kept.iter().sum::<f64>() / kept.len().max(1) as f64
}

/// Median of a small sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles by the exclusive method — the values Python's
/// `statistics.quantiles(values, n=4)` returns, which is what the driver
/// computes run-to-run spread from. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 leaves exactly 10 beyond; 999 leaves 9.
        assert_eq!(tail_percent(1000), 99);
        assert_eq!(tail_percent(999), 90);
        // p90 of 100 leaves exactly 10 beyond; 99 leaves 9.
        assert_eq!(tail_percent(100), 90);
        assert_eq!(tail_percent(99), 50);
        assert_eq!(tail_percent(0), 50);
    }

    #[test]
    fn timing_reports_the_pinned_tail_and_what_is_supported() {
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = Timing::of(vec![big], 99);
        assert_eq!((t.samples, t.supported_percent), (2000, 99));
        assert_eq!((t.p50, t.tail, t.p999), (1000.0, 1980.0, 1998.0));

        let small: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = Timing::of(vec![small.clone()], 90);
        assert_eq!((t.supported_percent, t.tail), (90, 180.0));
        // A pinned percentile the sample cannot support is still computed,
        // and shows as unsupported.
        let t = Timing::of(vec![small], 99);
        assert_eq!((t.supported_percent, t.tail), (90, 198.0));
    }

    #[test]
    fn a_stalled_window_is_trimmed_and_stays_visible() {
        let calm: Vec<f64> = (1..=100).map(f64::from).collect();
        let slow: Vec<f64> = calm.iter().map(|x| x * 1.25).collect();
        let stalled: Vec<f64> = calm.iter().map(|x| x + 5000.0).collect();
        let windows = vec![slow.clone(), stalled, calm, slow.clone(), slow];
        let t = Timing::of(windows, 90);
        // The stalled window is the trimmed extreme; the slow spell counts.
        assert_eq!((t.samples, t.p50, t.tail), (500, 62.5, 112.5));
        assert_eq!((t.best_p50, t.best_tail), (50.0, 90.0));
        // The stall still shows in the pooled p999.
        assert!(t.p999 > 5000.0);
        assert_eq!(Timing::of(vec![Vec::new()], 90).p50, 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 2.0, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(trimmed_mean(&[9.0, 1.0, 4.0, 6.0]), 5.0);
        assert_eq!(trimmed_mean(&[4.0, 1.0]), 2.5);
        assert_eq!(trimmed_mean(&[]), 0.0);
        assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }
}
