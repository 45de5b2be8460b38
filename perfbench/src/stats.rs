//! The benchmark's own arithmetic: medians, the tail percentile a sample
//! supports, and the metric-name grammar.

/// Percentiles the tail is chosen from, in per mille, highest first.
const TAIL_GRID: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples a reported percentile must leave strictly beyond it.
const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of the `permille`-th per-mille point in a sample
/// of `n >= 1`.
fn rank(permille: u64, n: usize) -> usize {
    let n64 = n as u64;
    let rank = (permille * n64).div_ceil(1000).clamp(1, n64);
    usize::try_from(rank).expect("rank is at most n")
}

/// The highest percentile of [`TAIL_GRID`], in per mille, that leaves at
/// least ten samples beyond it in a sample of `n`; the median (500) when
/// `n` is too small for any of them.
pub fn tail_permille(n: usize) -> u64 {
    TAIL_GRID
        .into_iter()
        .find(|&p| n >= TAIL_BEYOND && n - rank(p, n) >= TAIL_BEYOND)
        .unwrap_or(500)
}

/// Nearest-rank `permille`-th per-mille point of `values`; 0 for an empty
/// slice.
pub fn percentile(values: &[f64], permille: u64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(permille, sorted.len()) - 1]
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        // Too small for any tail: the median stands in.
        for n in [0, 1, 10, 19] {
            assert_eq!(tail_permille(n), 500, "n={n}");
        }
        assert_eq!(tail_permille(20), 500);
        assert_eq!(tail_permille(39), 500);
        assert_eq!(tail_permille(40), 750);
        assert_eq!(tail_permille(99), 750);
        assert_eq!(tail_permille(100), 900);
        assert_eq!(tail_permille(200), 950);
        assert_eq!(tail_permille(1000), 990);
        assert_eq!(tail_permille(10_000), 999);
        for n in 20..20_000 {
            let p = tail_permille(n);
            assert!(n - rank(p, n) >= 10, "n={n} p={p}");
            let next = TAIL_GRID.iter().rev().find(|&&q| q > p);
            assert!(
                next.is_none_or(|&q| n - rank(q, n) < 10),
                "n={n}: {p} is not the highest"
            );
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(percentile(&values, 750), 30.0);
        assert_eq!(percentile(&values, 500), 20.0);
        assert_eq!(percentile(&values, 1000), 40.0);
        assert_eq!(percentile(&[7.0], 999), 7.0);
        assert_eq!(percentile(&[], 500), 0.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "trials_per_s",
            "trial_ms.p50",
            "core.template.host_ms",
            "9a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".x", "_x", "a b", "a/b", "ms%", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
