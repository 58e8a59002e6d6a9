//! The benchmark's decision rules as small pure functions: which
//! percentile a sample supports, when a ladder rung passes, how two
//! sets of samples compare. Everything here is unit-tested
//! (`cargo test --offline` inside `benchmark/`).

/// Median of `v` (mean of the two middle values for even lengths).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default *exclusive* method) gives them — the driver measures
/// spread this way, so the harness does too. Fewer than two samples
/// have no spread: both quartiles are the sample itself.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    assert!(!v.is_empty(), "quartiles of no samples");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n < 2 {
        return (s[0], s[0]);
    }
    let at = |k: usize| {
        // Position k * (n + 1) / 4 in 1-based ranks, clamped to the data.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Not clamped: like Python, tiny samples extrapolate.
        let frac = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(3))
}

/// The estimator of the host metrics: the lower quartile. Interference
/// on a shared box only ever adds time, and on this one it comes in
/// phases that slow a memory-bound process by 20–50 % for seconds to
/// minutes (README, "Noise"); the fastest quarter of the samples is
/// what the code costs when left alone, and it is far steadier from
/// run to run than the median.
pub fn lower_quartile(v: &[f64]) -> f64 {
    quartiles(v).0
}

/// Inter-quartile distance as a share of the median (`0` when the
/// median is `0`, which only an all-zero sample produces here).
pub fn spread(v: &[f64]) -> f64 {
    let m = median(v);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(v);
    (q3 - q1) / m.abs()
}

/// The percentiles the harness reports, lowest first.
pub const PERCENTILES: [f64; 3] = [0.50, 0.99, 0.999];

/// Percentile support rule: a percentile is reported only when at least
/// ten samples lie beyond it. Returns the highest supported entry of
/// [`PERCENTILES`], or `None` when not even the median is supported.
pub fn highest_supported(count: u64) -> Option<f64> {
    PERCENTILES.iter().copied().rev().find(|&p| supports(count, p))
}

/// Whether `count` samples leave at least ten beyond percentile `p`.
pub fn supports(count: u64, p: f64) -> bool {
    count as f64 * (1.0 - p) >= 10.0 - 1e-9
}

/// Backlog-growth test of the ladder rule: requests in flight late in
/// the window may exceed those at mid-window by 10 % plus a constant 64
/// (so an idle system with a handful in flight never trips it). The
/// harness feeds it floors over a quarter window each, not instants
/// (`workloads::run_rep`).
pub fn backlog_growing(in_flight_mid: u64, in_flight_end: u64) -> bool {
    in_flight_end as f64 > 1.1 * in_flight_mid as f64 + 64.0
}

/// Largest share of a rung's submitted requests that may fail.
pub const RUNG_FAILED_SHARE_MAX: f64 = 0.005;

/// What one ladder rung measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rung {
    /// Offered rate, ops per virtual second.
    pub rate: f64,
    /// Ops completed per virtual second in the window.
    pub goodput: f64,
    /// p99 latency in the window, µs.
    pub p99_us: f64,
    /// Least in flight over the window's second / last quarter.
    pub in_flight_mid: u64,
    /// See `in_flight_mid`.
    pub in_flight_end: u64,
    /// `(abandoned + shed + never completed) / submitted`; `None` when
    /// the drain was skipped because the rung had already failed on
    /// latency or backlog.
    pub failed_share: Option<f64>,
}

impl Rung {
    /// The two conditions that need no drain: latency limit and a
    /// backlog that is not growing.
    pub fn passes_in_window(&self, p99_limit_us: f64) -> bool {
        self.p99_us <= p99_limit_us && !backlog_growing(self.in_flight_mid, self.in_flight_end)
    }

    /// The full ladder rule.
    pub fn passes(&self, p99_limit_us: f64) -> bool {
        self.passes_in_window(p99_limit_us)
            && self.failed_share.is_some_and(|f| f <= RUNG_FAILED_SHARE_MAX)
    }
}

/// `max_rate_ok_ops_s`: the rate of the highest passing rung below the
/// first failing one. Walking stops at the first failure — a rung that
/// passes above a failing one is an artefact, not capacity. Returns
/// `None` when even the lowest rung fails.
///
/// # Panics
/// Panics if the rungs are not in strictly ascending rate order.
pub fn max_rate_ok(rungs: &[Rung], p99_limit_us: f64) -> Option<f64> {
    assert!(rungs.windows(2).all(|w| w[0].rate < w[1].rate), "ladder rungs must ascend");
    rungs.iter().take_while(|r| r.passes(p99_limit_us)).last().map(|r| r.rate)
}

/// Interpolated quantile over a step quantile function.
///
/// The simulator's latency recorder is a log-bucket histogram whose
/// `percentile(frac)` returns a bucket midpoint, so nearby runs read
/// exactly the same value. This recovers a continuous estimate from
/// outside, through that one call: bisect `frac` for the cumulative
/// shares at which the reported value changes (they bracket the bucket
/// holding rank `q`), take the bucket's edges as the midpoints towards
/// the neighbouring reported values, and interpolate linearly by rank.
/// `count` bounds the bisection depth (ranks are multiples of
/// `1 / count`).
pub fn interp_quantile(q: f64, count: u64, step: impl Fn(f64) -> f64) -> f64 {
    let v = step(q);
    if count < 2 {
        return v;
    }
    let eps = 0.25 / count as f64;
    // Largest frac still reporting a value below `v` (0 if none).
    let (mut lo, mut hi) = (0.0f64, q);
    if step(eps) >= v {
        hi = 0.0;
    } else {
        while hi - lo > eps {
            let mid = (lo + hi) / 2.0;
            if step(mid) < v {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    let f_below = hi;
    // Smallest frac reporting a value above `v` (1 if none).
    let (mut lo2, mut hi2) = (q, 1.0f64);
    if step(1.0) <= v {
        lo2 = 1.0;
    } else {
        while hi2 - lo2 > eps {
            let mid = (lo2 + hi2) / 2.0;
            if step(mid) > v {
                hi2 = mid;
            } else {
                lo2 = mid;
            }
        }
    }
    let f_upto = lo2;
    if f_upto <= f_below {
        return v;
    }
    let prev = if f_below > 0.0 { step((f_below - eps).max(eps)) } else { v };
    let next = if f_upto < 1.0 { step((f_upto + 2.0 * eps).min(1.0)) } else { v };
    // Without a neighbour on one side, mirror the other side's half-width.
    let half_lo = if prev < v { (v - prev) / 2.0 } else { (next - v) / 2.0 };
    let half_hi = if next > v { (next - v) / 2.0 } else { (v - prev) / 2.0 };
    let t = ((q - f_below) / (f_upto - f_below)).clamp(0.0, 1.0);
    (v - half_lo) + t * (half_lo + half_hi)
}

/// Which direction of a metric is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// By how much a metric may worsen before a change is a regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// A share of the baseline's median.
    Rel(f64),
    /// An absolute amount in the metric's own unit.
    Abs(f64),
}

/// Verdict of [`classify`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A side's inter-quartile spread is wider than the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares baseline samples `a` with candidate samples `b` of one
/// metric on one workload.
pub fn classify(a: &[f64], b: &[f64], better: Better, bound: Bound) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let allowed = match bound {
        Bound::Rel(r) => r * ma.abs(),
        Bound::Abs(x) => x,
    };
    let width = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        q3 - q1
    };
    if width(a) > allowed || width(b) > allowed {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    if worse_by > allowed {
        Verdict::Regressed
    } else if -worse_by > allowed {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert!((median(&v) - 5.5).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_support_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.50));
        assert_eq!(highest_supported(999), Some(0.50));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(9_999), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert!(supports(100_000, 0.9999) && !supports(99_999, 0.9999));
    }

    #[test]
    fn backlog_rule_allows_ten_percent_plus_slack() {
        assert!(!backlog_growing(0, 64));
        assert!(backlog_growing(0, 65));
        assert!(!backlog_growing(1_000, 1_164));
        assert!(backlog_growing(1_000, 1_165));
    }

    fn rung(rate: f64, p99_us: f64, mid: u64, end: u64, failed: Option<f64>) -> Rung {
        Rung {
            rate,
            goodput: rate,
            p99_us,
            in_flight_mid: mid,
            in_flight_end: end,
            failed_share: failed,
        }
    }

    #[test]
    fn ladder_stops_at_the_first_failing_rung() {
        let ok = |r| rung(r, 900.0, 20, 25, Some(0.0));
        let slow = |r| rung(r, 20_000.0, 20, 25, Some(0.0));
        assert_eq!(max_rate_ok(&[ok(1.0), ok(2.0), slow(3.0), slow(4.0)], 5_000.0), Some(2.0));
        // A pass above a failure does not count.
        assert_eq!(max_rate_ok(&[ok(1.0), slow(2.0), ok(3.0)], 5_000.0), Some(1.0));
        assert_eq!(max_rate_ok(&[slow(1.0), ok(2.0)], 5_000.0), None);
        // Each condition fails a rung on its own.
        assert!(!rung(1.0, 900.0, 100, 1_000, Some(0.0)).passes(5_000.0));
        assert!(!rung(1.0, 900.0, 20, 25, Some(0.006)).passes(5_000.0));
        assert!(!rung(1.0, 900.0, 20, 25, None).passes(5_000.0));
        assert!(rung(1.0, 5_000.0, 20, 25, Some(0.005)).passes(5_000.0));
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn ladder_rungs_must_be_ordered() {
        let r = rung(2.0, 1.0, 0, 0, Some(0.0));
        let _ = max_rate_ok(&[r, rung(1.0, 1.0, 0, 0, Some(0.0))], 5.0);
    }

    /// A step quantile over explicit buckets `(midpoint, count)`.
    fn stepper(buckets: &'static [(f64, u64)]) -> (u64, impl Fn(f64) -> f64) {
        let total: u64 = buckets.iter().map(|b| b.1).sum();
        let f = move |frac: f64| {
            let target = ((total as f64 * frac).ceil() as u64).clamp(1, total);
            let mut seen = 0;
            for &(mid, c) in buckets {
                seen += c;
                if seen >= target {
                    return mid;
                }
            }
            buckets[buckets.len() - 1].0
        };
        (total, f)
    }

    #[test]
    fn interpolation_moves_within_the_bucket_by_rank() {
        // Buckets of width 10 centred on 100, 110, 120.
        static B: [(f64, u64); 3] = [(100.0, 400), (110.0, 400), (120.0, 200)];
        let (n, f) = stepper(&B);
        // Rank 500 of 1000 is a quarter into the middle bucket [105, 115).
        let p50 = interp_quantile(0.5, n, &f);
        assert!((p50 - 107.5).abs() < 0.05, "{p50}");
        // Rank 900 is halfway into the last bucket [115, 125).
        let p90 = interp_quantile(0.9, n, &f);
        assert!((p90 - 120.0).abs() < 0.05, "{p90}");
        // Never leaves the neighbouring midpoints.
        for q in [0.01, 0.3, 0.41, 0.79, 0.81, 0.999] {
            let x = interp_quantile(q, n, &f);
            assert!((95.0..=125.0).contains(&x), "{q} -> {x}");
        }
        // Monotone in q.
        let xs: Vec<f64> = (1..100).map(|i| interp_quantile(i as f64 / 100.0, n, &f)).collect();
        assert!(xs.windows(2).all(|w| w[0] <= w[1] + 1e-9));
    }

    #[test]
    fn interpolation_of_a_single_bucket_is_its_midpoint() {
        static B: [(f64, u64); 1] = [(42.0, 10)];
        let (n, f) = stepper(&B);
        assert_eq!(interp_quantile(0.5, n, &f), 42.0);
    }

    #[test]
    fn classify_applies_bound_and_spread() {
        use Better::*;
        use Verdict::*;
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let same = classify(&a, &[10.2, 10.3, 10.1, 10.2, 10.25], Lower, Bound::Rel(0.1));
        assert_eq!(same, Unchanged);
        let worse = classify(&a, &[11.6, 11.5, 11.7, 11.6, 11.55], Lower, Bound::Rel(0.1));
        assert_eq!(worse, Regressed);
        let better = classify(&a, &[8.0, 8.1, 7.9, 8.0, 8.05], Lower, Bound::Rel(0.1));
        assert_eq!(better, Improved);
        let noisy = classify(&a, &[8.0, 12.0, 10.0, 9.0, 11.0], Lower, Bound::Rel(0.1));
        assert_eq!(noisy, Unresolved);
        // Higher-is-better flips the direction; single virtual samples
        // have no spread.
        assert_eq!(classify(&[100.0], &[98.0], Higher, Bound::Rel(0.01)), Regressed);
        assert_eq!(classify(&[100.0], &[99.5], Higher, Bound::Rel(0.01)), Unchanged);
        assert_eq!(classify(&[0.0], &[0.0005], Lower, Bound::Abs(0.001)), Unchanged);
        assert_eq!(classify(&[0.0], &[0.002], Lower, Bound::Abs(0.001)), Regressed);
    }
}
