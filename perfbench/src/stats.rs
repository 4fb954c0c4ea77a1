//! Order statistics for latency samples.

/// Nearest-rank percentile of `samples` (`p` in `[0, 1]`): the smallest
/// sample with at least `p·n` samples at or below it. Reorders `samples`
/// in place (linear-time selection, no full sort). `None` when empty.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let i = rank_index(samples.len(), p);
    let (_, v, _) = samples.select_nth_unstable_by(i, f64::total_cmp);
    Some(*v)
}

/// Zero-based index of the nearest-rank `p`-percentile among `n` samples.
fn rank_index(n: usize, p: f64) -> usize {
    // The epsilon keeps `0.999 * 20000` from rounding up a rank.
    let rank = (p.clamp(0.0, 1.0) * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Median of `samples` (nearest rank, so always one of the samples), or
/// 0 when there are none.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(0.0)
}

/// Tail percentiles considered, highest first.
const TAILS: [f64; 3] = [0.999, 0.99, 0.9];

/// The highest percentile of [`TAILS`] that leaves at least ten samples
/// above it, as `(p, value)`. With fewer than 100 samples no percentile
/// qualifies and the tail is the maximum, reported as `p = 1.0`.
pub fn tail(samples: &mut [f64]) -> Option<(f64, f64)> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    let p = TAILS
        .into_iter()
        .find(|&p| n - 1 - rank_index(n, p) >= 10)
        .unwrap_or(1.0);
    percentile(samples, p).map(|v| (p, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook version: sort, then index the nearest rank.
    fn naive_percentile(samples: &[f64], p: f64) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = (p * sorted.len() as f64 - 1e-9).ceil().max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    #[test]
    fn percentile_matches_sorted_vector() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 4321] {
            let data: Vec<f64> = (0..n)
                .map(|_| {
                    state = dakc_kmer::splitmix64(state);
                    // Coarse values so ties occur.
                    (state % 97) as f64 * 0.25
                })
                .collect();
            for p in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let mut work = data.clone();
                assert_eq!(
                    percentile(&mut work, p),
                    Some(naive_percentile(&data, p)),
                    "n={n} p={p}"
                );
            }
        }
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let mut few: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&mut few), Some((1.0, 50.0)));
        let mut hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&mut hundred), Some((0.9, 90.0)));
        let mut many: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&mut many), Some((0.99, 4950.0)));
        let mut lots: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(tail(&mut lots), Some((0.999, 19_980.0)));
        assert_eq!(tail(&mut []), None);
        assert_eq!(percentile(&mut [], 0.5), None);
    }
}
