//! The benchmark's own statistics: medians, quartile spread, the tail
//! percentile rule, the geometric mean of per-kernel medians, and the
//! regression verdict against a metric's bound.

/// Percentile ladder the tail rule climbs (highest usable wins), in
/// basis points so ranks come from exact integer arithmetic.
const TAIL_LADDER_BP: [usize; 9] = [5000, 7500, 9000, 9500, 9900, 9950, 9990, 9995, 9999];

/// Slices of a timed phase that rates and medians take their median over:
/// short enough that one slow stretch of the host spoils only a few.
pub const ROUNDS: usize = 10;

/// Samples that must lie beyond a percentile before it may be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of a sample (mean of the middle pair for even lengths).
///
/// # Panics
/// Panics on an empty sample or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Runs a single-shot timing this many times and keeps the median.
pub const TIMER_REPS: usize = 5;

/// Median over [`TIMER_REPS`] runs of `f`, in µs.
pub fn median_time_us(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..TIMER_REPS)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// A sorted copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    s
}

/// Quartiles `(q1, q2, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// `exclusive` method).
///
/// # Panics
/// Panics on fewer than two samples (Python raises there too).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    let ld = s.len();
    assert!(ld >= 2, "quartiles need at least two samples");
    let (n, m) = (4usize, ld + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread a metric's bound is judged against.
pub fn spread_share(values: &[f64]) -> f64 {
    let (q1, _, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// A tail reading: the value at the highest ladder percentile that still
/// has at least [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Percentile reported (e.g. 99.0).
    pub percentile: f64,
    /// Value at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
    /// Sample count the reading was taken over.
    pub samples: usize,
}

/// Applies the tail rule. Percentiles use the nearest-rank definition:
/// `p` maps to the `ceil(p/100 * n)`-th smallest sample, and the samples
/// beyond it are the `n - rank` above that rank. Falls back to the median
/// rank when the sample is too small for any ladder step.
///
/// # Panics
/// Panics on an empty sample.
pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of an empty sample");
    let s = sorted(values);
    let n = s.len();
    let rank = |bp: usize| (bp * n).div_ceil(10_000).clamp(1, n);
    let pick = TAIL_LADDER_BP
        .iter()
        .rev()
        .copied()
        .find(|&bp| n - rank(bp) >= TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_LADDER_BP[0]);
    let k = rank(pick);
    Tail {
        percentile: pick as f64 / 100.0,
        value: s[k - 1],
        beyond: n - k,
        samples: n,
    }
}

/// Geometric mean of strictly positive values.
///
/// # Panics
/// Panics on an empty input or a non-positive value.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    assert!(
        values.iter().all(|&v| v > 0.0),
        "geometric mean needs positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Completions per second in each of `rounds` equal slices of a measured
/// phase of `elapsed` seconds; the median over slices keeps one noisy
/// slice from moving the rate. `done_at` holds each completion's offset
/// from the phase start; completions at or after the last slice start
/// count in the last slice, which runs to `elapsed`.
pub fn rates_by_rounds(done_at: &[f64], elapsed: f64, rounds: usize) -> Vec<f64> {
    let samples: Vec<(f64, ())> = done_at.iter().map(|&t| (t, ())).collect();
    let len = elapsed / rounds as f64;
    by_rounds(&samples, elapsed, rounds)
        .iter()
        .map(|r| r.len() as f64 / len)
        .collect()
}

/// Splits `(offset, value)` samples of a phase of `elapsed` seconds into
/// `rounds` equal slices (the last slice takes stragglers) and returns
/// each slice's values.
pub fn by_rounds<T: Clone>(samples: &[(f64, T)], elapsed: f64, rounds: usize) -> Vec<Vec<T>> {
    assert!(rounds >= 1 && elapsed > 0.0);
    let len = elapsed / rounds as f64;
    let mut out = vec![Vec::new(); rounds];
    for (t, v) in samples {
        out[((t / len) as usize).min(rounds - 1)].push(v.clone());
    }
    out
}

/// The tail rule applied to consecutive windows of `window` samples
/// (in order of their offsets), reporting the median window's value.
/// A fixed window size fixes the percentile whatever the run's speed,
/// and one slow stretch of the host moves only the windows it spans.
/// Fewer samples than one window are read as a single window.
pub fn tail_by_windows(samples: &[(f64, f64)], window: usize) -> Tail {
    assert!(window >= 1 && !samples.is_empty());
    let mut ordered = samples.to_vec();
    ordered.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("offsets are never NaN"));
    let values: Vec<f64> = ordered.into_iter().map(|(_, v)| v).collect();
    let mut tails: Vec<Tail> = if values.len() < window {
        vec![tail(&values)]
    } else {
        values.chunks_exact(window).map(tail).collect()
    };
    tails.sort_by(|a, b| {
        a.value
            .partial_cmp(&b.value)
            .expect("samples are never NaN")
    });
    let value = median(&tails.iter().map(|t| t.value).collect::<Vec<_>>());
    Tail {
        value,
        ..tails[tails.len() / 2]
    }
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// Parses the `better` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// How much worse `child` is than `parent`, as a share of the parent's
/// median (negative when the child is better).
pub fn worsening(parent: &[f64], child: &[f64], better: Better) -> f64 {
    let (p, c) = (median(parent), median(child));
    let worse_by = match better {
        Better::Lower => c - p,
        Better::Higher => p - c,
    };
    worse_by / p.abs()
}

/// The regression verdict: the child passes when its median is no worse
/// than the parent's by more than `bound` (a share of the parent median).
pub fn within_bound(parent: &[f64], child: &[f64], better: Better, bound: f64) -> bool {
    worsening(parent, child, better) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!(close(q1, 2.75) && close(q2, 5.5) && close(q3, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q2, q3) = quartiles(&[2.0, 1.0]);
        assert!(close(q1, 0.75) && close(q2, 1.5) && close(q3, 2.25));
        // statistics.quantiles([10, 12, 11, 30, 9], n=4) == [9.5, 11.0, 21.0]
        let (q1, q2, q3) = quartiles(&[10.0, 12.0, 11.0, 30.0, 9.0]);
        assert!(close(q1, 9.5) && close(q2, 11.0) && close(q3, 21.0));
    }

    #[test]
    fn spread_share_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(spread_share(&v), (8.25 - 2.75) / 5.5));
        assert_eq!(spread_share(&[4.0, 4.0, 4.0, 4.0]), 0.0);
    }

    #[test]
    fn tail_climbs_to_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.5 only 5.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 1000);
        // 999 samples: p99 rank 990 leaves 9, so the rule steps down to p95.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.value, 950.0);
        assert_eq!(t.beyond, 49);
        // Order of input does not matter.
        let mut rev: Vec<f64> = (1..=1000).map(f64::from).collect();
        rev.reverse();
        assert_eq!(tail(&rev).value, 990.0);
    }

    #[test]
    fn tail_falls_back_to_the_median_rank_on_tiny_samples() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.value, 3.0);
        assert_eq!(t.beyond, 1);
        // 20 samples: p50 rank 10 leaves exactly 10 beyond.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
    }

    #[test]
    fn median_round_rate_ignores_one_stalled_round() {
        // 10 s, 5 rounds of 2 s: 20 completions per round except a round
        // that stalled with 2.
        let mut at = Vec::new();
        for r in 0..5 {
            let n = if r == 2 { 2 } else { 20 };
            at.extend((0..n).map(|i| r as f64 * 2.0 + i as f64 * 2.0 / n as f64));
        }
        assert!(close(median(&rates_by_rounds(&at, 10.0, 5)), 10.0));
        // The pooled rate would read 8.2/s.
        assert!(close(at.len() as f64 / 10.0, 8.2));
        // A completion past the end lands in the last round.
        assert_eq!(rates_by_rounds(&[0.5, 1.5, 2.5], 2.0, 2), vec![1.0, 2.0]);
    }

    #[test]
    fn by_rounds_slices_on_offsets() {
        let r = by_rounds(&[(0.1, 1.0), (1.2, 2.0), (1.9, 3.0), (2.5, 4.0)], 2.0, 2);
        assert_eq!(r, vec![vec![1.0], vec![2.0, 3.0, 4.0]]);
    }

    #[test]
    fn tail_by_windows_reports_the_median_window() {
        // Three windows of 100 samples 1..=100, the middle one slowed 10x,
        // plus a partial window that is left out.
        let mut samples = Vec::new();
        for w in 0..3 {
            let scale = if w == 1 { 10.0 } else { 1.0 };
            samples.extend((1..=100).map(|i| (w as f64 * 100.0 + i as f64, i as f64 * scale)));
        }
        samples.push((1000.0, 1e9));
        let t = tail_by_windows(&samples, 100);
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (90.0, 90.0, 10, 100)
        );
        // Fewer samples than a window: one window over all of them.
        let t = tail_by_windows(&samples[..20], 100);
        assert_eq!((t.percentile, t.samples), (50.0, 20));
    }

    #[test]
    fn geomean_of_per_kernel_medians() {
        assert!(close(geomean(&[1.0, 100.0]), 10.0));
        assert!(close(geomean(&[2.0, 8.0, 4.0]), 4.0));
        // Pooled median of a mix moves with the mix; the geometric mean
        // of per-kernel medians does not care how many of each ran.
        let fast = [1.0, 1.1, 0.9];
        let slow = [100.0, 110.0, 90.0, 100.0, 100.0, 100.0, 100.0];
        assert!(close(geomean(&[median(&fast), median(&slow)]), 10.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn regression_verdict_respects_direction_and_bound() {
        let parent = [10.0, 10.0, 10.0];
        let slower = [11.0, 11.0, 11.0];
        // Lower is better: +10% is within a 0.1 bound, not within 0.05.
        assert!(close(worsening(&parent, &slower, Better::Lower), 0.1));
        assert!(within_bound(&parent, &slower, Better::Lower, 0.1));
        assert!(!within_bound(&parent, &slower, Better::Lower, 0.05));
        // Higher is better: the same change is an improvement.
        assert!(close(worsening(&parent, &slower, Better::Higher), -0.1));
        assert!(within_bound(&parent, &slower, Better::Higher, 0.0));
        let fewer = [8.0, 8.0, 8.0];
        assert!(!within_bound(&parent, &fewer, Better::Higher, 0.1));
        assert_eq!(Better::parse("lower"), Some(Better::Lower));
        assert_eq!(Better::parse("sideways"), None);
    }
}
