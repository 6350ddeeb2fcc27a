//! Sample statistics and the metric math the report is built from.

/// A tail figure needs at least this many samples ranked above it, so a
/// single outlier can never be the reported tail.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `samples` (`0 < q <= 1`): the
/// `ceil(q·n)`-th smallest value. `None` for an empty set.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// The median as a nearest-rank quantile (always one of the samples).
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 0.5)
}

/// A tail figure: the highest nearest-rank percentile, at most the
/// requested one and at least the median, that still has
/// [`MIN_BEYOND`] samples ranked above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, as a fraction (`rank / n`).
    pub q: f64,
    /// The sample at that rank.
    pub value: f64,
    /// How many samples the figure was taken from.
    pub n: usize,
}

/// The tail figure aiming at percentile `target`. With `n` samples the
/// rank is `min(ceil(target·n), n − MIN_BEYOND)`, so `p90` is reached
/// only from 100 samples on; fewer samples report a lower percentile,
/// and `q` says which. `None` when that rank falls below the median's
/// (fewer than 20 samples): a tail read below the median would swing
/// between the smallest sample and the median as `n` crosses 10.
pub fn tail(samples: &[f64], target: f64) -> Option<Tail> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let rank = ((target * n as f64).ceil() as usize).clamp(1, n - MIN_BEYOND);
    if rank < n.div_ceil(2) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        q: rank as f64 / n as f64,
        value: sorted[rank - 1],
        n,
    })
}

/// `part / whole`, or 0 when there is no whole to divide.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The worker-pool busy ratio over one or more sweeps, each given as
/// `(wall seconds, threads)`: replica seconds over the thread-seconds
/// the pools had (`Σ wall_secs / Σ wall × threads`).
pub fn pool_busy_ratio(replica_secs: f64, sweeps: &[(f64, usize)]) -> f64 {
    ratio(
        replica_secs,
        sweeps.iter().map(|&(wall, t)| wall * t as f64).sum(),
    )
}

/// Operations failed over operations attempted.
pub fn error_rate(failed: u64, attempted: u64) -> f64 {
    ratio(failed as f64, attempted as f64)
}

/// Traced wall time that no layer span covers, as a share of it.
pub fn unattributed_ratio(traced_wall: f64, span_total: f64) -> f64 {
    ratio((traced_wall - span_total).max(0.0), traced_wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // shuffled 1..=n, so sorting is exercised
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v.swap(0, n / 2);
        v
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v = ramp(10);
        assert_eq!(nearest_rank(&v, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&v, 0.51), Some(6.0));
        assert_eq!(nearest_rank(&v, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_reaches_p90_only_with_ten_samples_beyond() {
        // 100 samples: rank 90, and exactly ten lie above it
        let t = tail(&ramp(100), 0.9).unwrap();
        assert_eq!((t.value, t.q, t.n), (90.0, 0.9, 100));
        // 1000 samples: p90 has far more than ten beyond
        let t = tail(&ramp(1000), 0.9).unwrap();
        assert_eq!(t.value, 900.0);
        // 40 samples: p90 (rank 36) has only four beyond, so the rank
        // falls back to 30 — the highest with ten above it
        let t = tail(&ramp(40), 0.9).unwrap();
        assert_eq!((t.value, t.q), (30.0, 0.75));
        // 20 samples: rank 10, the median's, has ten beyond it
        let t = tail(&ramp(20), 0.9).unwrap();
        assert_eq!((t.value, t.q), (10.0, 0.5));
        // 11 to 19 samples: the only ranks with ten beyond lie below
        // the median, so no tail is reported
        assert_eq!(tail(&ramp(11), 0.9), None);
        assert_eq!(tail(&ramp(19), 0.9), None);
        // ten or fewer: no tail can be reported
        assert_eq!(tail(&ramp(10), 0.9), None);
        assert_eq!(tail(&[], 0.9), None);
    }

    #[test]
    fn tail_never_exceeds_its_target() {
        let t = tail(&ramp(400), 0.5).unwrap();
        assert_eq!((t.value, t.q), (200.0, 0.5));
    }

    #[test]
    fn ratios_divide_by_their_base() {
        assert_eq!(pool_busy_ratio(3.0, &[(2.0, 2)]), 0.75);
        assert_eq!(pool_busy_ratio(3.0, &[(1.0, 2), (0.5, 2)]), 1.0);
        assert_eq!(pool_busy_ratio(1.0, &[]), 0.0);
        assert_eq!(error_rate(1, 4), 0.25);
        assert_eq!(error_rate(0, 0), 0.0);
        assert_eq!(unattributed_ratio(2.0, 1.5), 0.25);
        // spans that overrun the wall (timer granularity) clamp to zero
        assert_eq!(unattributed_ratio(1.0, 1.2), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
