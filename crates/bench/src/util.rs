//! Helpers shared by the `bench_*` binaries: summary statistics over
//! timing samples and `--flag value` lookup.

/// Median of finite samples (mean of the middle two for an even count);
/// sorts `xs` in place.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Nearest-rank `p`-quantile (`0 <= p <= 1`) of ascending samples; 0 for
/// none.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The argument following `flag`, if both are present.
pub fn arg_after(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_picks_nearest_rank() {
        let xs = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&xs, 0.0), 10);
        assert_eq!(percentile(&xs, 0.5), 30);
        assert_eq!(percentile(&xs, 0.99), 50);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn arg_after_finds_the_value() {
        let args: Vec<String> = ["--smoke", "--out", "r.json"].map(String::from).to_vec();
        assert_eq!(arg_after(&args, "--out").as_deref(), Some("r.json"));
        assert_eq!(arg_after(&args, "--smoke").as_deref(), Some("--out"));
        assert_eq!(arg_after(&args, "--baseline"), None);
    }
}
