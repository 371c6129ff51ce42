//! Order statistics for timing samples, and the seed derivation every
//! generated input goes through.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one sample or has
/// already recorded a failed check.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method), which is what the
/// benchmark contract uses for spreads. One sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let q = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

/// Nearest-rank percentile `p` (0 < p < 100). Refuses — `None` — when
/// fewer than ten samples lie beyond the returned rank: a tail read off
/// fewer points than that is noise with a name.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile out of range");
    let n = xs.len();
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    if rank == 0 || n - rank < 10 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `index`-th seed of the named stream under the run's `--seed`.
/// A bijection in `index` for a fixed stream, so the job specs of one run
/// never collide.
pub fn derive_seed(seed: u64, stream: &str, index: u64) -> u64 {
    splitmix64((seed ^ noc_store::fnv1a(stream.as_bytes())).wrapping_add(index))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_the_exclusive_method() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[2.0, 3.0, 1.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn percentile_is_nearest_rank_and_refuses_a_thin_tail() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), Some(190.0));
        assert_eq!(percentile(&xs, 50.0), Some(100.0));
        // 199 samples leave nine beyond rank 190.
        assert_eq!(percentile(&xs[..199], 95.0), None);
        assert_eq!(percentile(&xs[..19], 50.0), None);
        assert_eq!(percentile(&xs[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn seed_derivation_is_stable_and_collision_free() {
        // Pinned: a change here silently changes every generated input.
        assert_eq!(derive_seed(11, "engine-base", 0), 0x990b_af64_70c0_700c);
        assert_ne!(
            derive_seed(11, "engine-base", 0),
            derive_seed(11, "engine-knee", 0)
        );
        assert_ne!(derive_seed(11, "job", 0), derive_seed(12, "job", 0));
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000 {
            assert!(seen.insert(derive_seed(11, "job", i)));
        }
    }
}
