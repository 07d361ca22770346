//! Statistics the report is built from: percentiles, the tail rule,
//! span self time and ratios. Kept free of any LogBase type so the
//! self-tests at the bottom exercise exactly what the report prints.

/// Percentile ladder the tail rule climbs.
const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` in `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    // The epsilon keeps float error (99.99 * n / 100 landing a hair
    // above an integer) from pushing the rank one sample too far.
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Nearest-rank percentile `p` of `sorted` (ascending); zero when empty.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    sorted[rank(p, sorted.len())]
}

/// Samples strictly after percentile `p`'s rank in `n` samples.
fn beyond(p: f64, n: usize) -> usize {
    n - 1 - rank(p, n)
}

/// The highest ladder percentile that still has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median
/// does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| beyond(p, n) >= MIN_BEYOND)
}

/// Latency summary of one op kind, in microseconds.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub n: usize,
    pub p50_us: f64,
    pub p99_us: f64,
    /// `(percentile, value)` of the tail rule, when the sample allows one.
    pub tail: Option<(f64, f64)>,
}

/// Summarise nanosecond samples (sorted in place).
pub fn summarize(samples: &mut [u64]) -> Summary {
    samples.sort_unstable();
    let us = |ns: u64| ns as f64 / 1000.0;
    Summary {
        n: samples.len(),
        p50_us: us(percentile(samples, 50.0)),
        p99_us: us(percentile(samples, 99.0)),
        tail: tail_percentile(samples.len()).map(|p| (p, us(percentile(samples, p)))),
    }
}

/// `num / den`, defined as 0 when nothing was counted in `den` (a
/// ratio over an op kind the workload does not issue).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Index of the window, of `windows` equal slices of `span_ns`, that
/// holds time `at_ns`; times past the end land in the last window.
fn window_of(at_ns: u64, span_ns: u64, windows: usize) -> usize {
    let w = (u128::from(at_ns) * windows as u128 / u128::from(span_ns.max(1))) as usize;
    w.min(windows - 1)
}

/// Mask of the `keep` windows in which the host stole the least CPU
/// time from this machine; ties go to the earlier window.
pub fn quietest(steal: &[u64], keep: usize) -> Vec<bool> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by_key(|&w| (steal[w], w));
    let mut mask = vec![false; steal.len()];
    for &w in order.iter().take(keep) {
        mask[w] = true;
    }
    mask
}

/// Latencies of the `(end_ns, latency_ns)` samples that ended in a
/// window `mask` selects, out of `mask.len()` equal slices of `span_ns`.
pub fn in_windows(samples: &[(u64, u64)], span_ns: u64, mask: &[bool]) -> Vec<u64> {
    samples
        .iter()
        .filter(|&&(end, _)| mask[window_of(end, span_ns, mask.len())])
        .map(|&(_, lat)| lat)
        .collect()
}

/// Self time of a span over `[start, end)`: its duration minus the part
/// of that interval covered by at least one child. Overlapping children
/// count once; the parts of children outside the parent do not count.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_small_samples() {
        // Fewer than 11 samples: not even the median has 10 beyond it.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(10), None);
        // 20 samples: median rank 10, 10 beyond; p90 rank 18, 2 beyond.
        assert_eq!(tail_percentile(20), Some(50.0));
        // 100 samples: p90 rank 90, 10 beyond; p99 has 1 beyond.
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
    }

    #[test]
    fn tail_rule_large_samples() {
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(5_000_000), Some(99.99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.9), 7);
        assert_eq!(percentile::<u64>(&[], 50.0), 0);
        assert_eq!(percentile(&[-3i64, 5], 50.0), -3);
    }

    #[test]
    fn summary_reports_tail_with_its_percentile() {
        let mut v: Vec<u64> = (1..=1_000).map(|x| x * 1000).collect();
        let s = summarize(&mut v);
        assert_eq!(s.n, 1_000);
        assert_eq!(s.p50_us, 500.0);
        assert_eq!(s.p99_us, 990.0);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert!(summarize(&mut []).tail.is_none());
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Parent 0..100; children 10..40 and 30..60 overlap on 30..40.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 60)]), 50);
        // A child nested inside another adds nothing.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 30)]), 50);
        // Disjoint children, given out of order.
        assert_eq!(self_time(0, 100, &[(70, 80), (10, 20)]), 80);
        // Children reaching outside the parent are clipped to it.
        assert_eq!(self_time(50, 100, &[(0, 60), (90, 200)]), 30);
        // Full cover, and no children at all.
        assert_eq!(self_time(0, 100, &[(0, 100), (20, 30)]), 0);
        assert_eq!(self_time(5, 9, &[]), 4);
    }

    #[test]
    fn ratio_with_zero_denominator_is_zero() {
        // e.g. dfs.reads_per_get on a workload that issued no gets.
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(12.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }

    #[test]
    fn quiet_windows_leave_out_stolen_time() {
        assert_eq!(
            quietest(&[5, 0, 9, 0, 3], 3),
            vec![false, true, false, true, true]
        );
        assert_eq!(quietest(&[0, 0, 0, 0], 2), vec![true, true, false, false]);
        // 4 windows over 4 s; window 2 is left out and its slow samples
        // with it. A sample ending past the span counts in the last one.
        let sec = 1_000_000_000u64;
        let samples = [(sec / 2, 1), (sec + 1, 2), (2 * sec + 5, 900), (5 * sec, 4)];
        let mask = [true, true, false, true];
        assert_eq!(in_windows(&samples, 4 * sec, &mask), vec![1, 2, 4]);
        assert_eq!(window_of(6 * sec, 4 * sec, 4), 3);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
