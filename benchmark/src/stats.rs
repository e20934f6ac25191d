//! Order statistics: the percentile rule, slice summaries and the spread the
//! driver judges a metric by.

/// The percentiles a latency distribution may be summarised at, with the
/// share of samples beyond each as a whole-number divisor (so the rule
/// below is exact at the boundaries).
const LADDER: [(f64, usize); 5] = [
    (0.5, 2),
    (0.9, 10),
    (0.99, 100),
    (0.999, 1_000),
    (0.9999, 10_000),
];

/// The highest percentile of [`LADDER`] that still has at least ten samples
/// beyond it in a sample of `n` (a tail estimated from fewer is noise). The
/// median is the floor, however small the sample.
pub fn highest_supported_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .find(|(_, one_in)| n / one_in >= 10)
        .map_or(0.5, |(p, _)| *p)
}

/// Nearest-rank percentile `p` in `[0, 1]` of an ascending slice (0 when
/// empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unordered values (mean of the two middle ones for an even
/// count; 0 when empty).
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

/// Min, first quartile, median, third quartile and max of per-slice values:
/// printed beside every per-slice figure a run reports, so that a reader
/// sees how far the reported slice is from the typical one.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FiveNumbers {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method, positions at `k(n+1)/4`), which is
/// what the driver computes a metric's spread from.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    // CPython: j = clamp(k·(n+1) div 4, 1, n−1); delta = k·(n+1) − 4j, taken
    // after the clamp, so the ends extrapolate exactly as Python's do.
    let at = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The five-number summary of per-slice values.
pub fn five_numbers(values: &[f64]) -> FiveNumbers {
    if values.is_empty() {
        return FiveNumbers::default();
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    // Python's method extrapolates past the ends of a tiny sample; a slice
    // that never happened is not a summary of the ones that did.
    let (q1, q3) = quartiles(values);
    FiveNumbers {
        min,
        q1: q1.clamp(min, max),
        median: median(values),
        q3: q3.clamp(min, max),
        max,
    }
}

/// Interquartile distance as a share of the median: the spread the driver
/// compares with a metric's bound (0 for a zero median).
pub fn relative_spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// FNV-1a offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a continued over `bytes` from `hash` (start at [`FNV_OFFSET`]): the
/// fingerprint of generated inputs and of report bytes, compared across
/// rungs, passes and runs.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Cuts `0..total` into `slices` contiguous ranges of equal size (the last
/// absorbs the remainder) and returns the end index of each.
pub fn slice_ends(total: usize, slices: usize) -> Vec<usize> {
    let slices = slices.clamp(1, total.max(1));
    let size = total / slices;
    (1..=slices)
        .map(|i| if i == slices { total } else { i * size })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(5), 0.5);
        assert_eq!(highest_supported_percentile(20), 0.5);
        assert_eq!(highest_supported_percentile(100), 0.9);
        assert_eq!(highest_supported_percentile(999), 0.9);
        assert_eq!(highest_supported_percentile(1_000), 0.99);
        assert_eq!(highest_supported_percentile(9_999), 0.99);
        assert_eq!(highest_supported_percentile(10_000), 0.999);
        assert_eq!(highest_supported_percentile(2_000_000), 0.9999);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn slice_median_ignores_one_stalled_slice() {
        let mut slices = vec![100.0; 8];
        slices[3] = 7.0; // one host stall
        let five = five_numbers(&slices);
        assert_eq!(five.median, 100.0);
        assert_eq!(five.min, 7.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        let two = five_numbers(&[3.0, 4.0]);
        assert_eq!((two.q1, two.q3), (3.0, 4.0));
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]);
        assert_eq!((q1, q3), (10.0, 40.0));
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"ab"), b"c"),
            fnv1a(FNV_OFFSET, b"abc")
        );
    }

    #[test]
    fn slices_cover_the_run_exactly() {
        assert_eq!(slice_ends(10, 3), vec![3, 6, 10]);
        assert_eq!(slice_ends(16, 8).len(), 8);
        assert_eq!(*slice_ends(17, 8).last().unwrap(), 17);
        assert_eq!(slice_ends(2, 8), vec![1, 2]);
    }
}
