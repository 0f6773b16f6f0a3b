//! Order statistics for reporting timings: medians, nearest-rank
//! percentiles, and the rule that picks which tail percentile a sample
//! count can support.

/// Percentiles the tail rule chooses from, in per-mille (500 = p50,
/// 999 = p99.9), so ranks are computed in exact integer arithmetic.
pub const LADDER_PERMILLE: [u64; 6] = [500, 750, 900, 950, 990, 999];

/// Samples a tail percentile must keep strictly beyond it before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `permille` percentile among `n` samples:
/// the smallest rank with at least `permille`/1000 of the samples at or
/// below it.
pub fn rank(n: usize, permille: u64) -> usize {
    ((permille * n as u64).div_ceil(1000) as usize).clamp(1, n.max(1))
}

/// Samples strictly above the `permille` percentile of `n` samples.
pub fn samples_beyond(n: usize, permille: u64) -> usize {
    n.saturating_sub(rank(n, permille))
}

/// The highest percentile of [`LADDER_PERMILLE`] with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median
/// cannot keep that many (fewer than 20 samples).
pub fn tail_permille(n: usize) -> Option<u64> {
    LADDER_PERMILLE
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile of `values` (any order; NaN-free).
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(values: &[f64], permille: u64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), permille) - 1]
}

/// The fastest of a run's executions, the figure a run reports for its
/// wall time, with the median and count printed beside it on stderr.
/// On a shared VM, time the host takes away from the benchmark's vCPUs
/// (steal) only ever adds to an execution, in bursts that can cover
/// whole executions; the fastest execution is the one least disturbed.
/// Zero for an empty slice.
pub fn fastest(walls: &[f64]) -> f64 {
    if walls.is_empty() {
        return 0.0;
    }
    let min = walls.iter().copied().fold(f64::INFINITY, f64::min);
    eprintln!(
        "wall: fastest {min:.4} s, median {:.4} s of {} executions",
        median(walls),
        walls.len()
    );
    min
}

/// Median of `values`: the middle sample, or the mean of the two middle
/// samples for an even count. Zero for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // The service workload's sample counts: 108 misses support p90
        // (10 beyond) but not p95; 1,080 hits support p99 but not p99.9.
        assert_eq!(tail_permille(108), Some(900));
        assert_eq!(samples_beyond(108, 900), 10);
        assert_eq!(samples_beyond(108, 950), 5);
        assert_eq!(tail_permille(1080), Some(990));
        assert_eq!(samples_beyond(1080, 990), 10);
        assert_eq!(samples_beyond(1080, 999), 1);
        // Boundaries: 100 samples keep exactly 10 beyond p90, 99 do not.
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(99), Some(750));
        // The median itself needs 20 samples.
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(0), None);
        assert_eq!(tail_permille(10_000), Some(999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
