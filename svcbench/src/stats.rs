//! Order statistics over latency samples.

/// The percentiles a report may quote, lowest first, in per mille.
const LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The 1-based nearest rank of the `per_mille` percentile among `n`.
fn rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000).clamp(1, n)
}

/// The `p`-th percentile (0–100, to a tenth) of `samples` by the
/// nearest-rank rule. Sorts a copy; returns `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let per_mille = (p * 10.0).round() as usize;
    Some(sorted[rank(sorted.len(), per_mille) - 1])
}

/// The median (nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The highest percentile of [`LADDER`] that leaves at least ten samples
/// above it, for a class with `n` samples. Below forty samples only the
/// median is quoted: a higher percentile would be no tail at all.
pub fn highest_supported_percentile(n: usize) -> f64 {
    if n < 40 {
        return 50.0;
    }
    let top = LADDER
        .iter()
        .copied()
        .filter(|&pm| n - rank(n, pm) >= 10)
        .max()
        .unwrap_or(500);
    top as f64 / 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
