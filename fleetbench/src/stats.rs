//! Order statistics over timing samples.
//!
//! A percentile is reported only when at least [`MIN_TAIL`] samples lie
//! beyond it: with fewer, the value is set by a handful of outliers (on a
//! shared host, by the neighbours) and does not repeat between runs.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// The `q`-th percentile (`0 < q < 100`) of `samples` by the nearest-rank
/// rule, or `None` when fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(
        q > 0.0 && q < 100.0,
        "percentile must lie in (0, 100), got {q}"
    );
    let n = samples.len();
    if n == 0 {
        return None;
    }
    // Nearest rank: the smallest value with at least q% of samples at or
    // below it.
    let rank = ((q / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_TAIL {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Smallest sample count for which [`percentile`] answers at `q`.
pub fn samples_needed(q: f64) -> usize {
    (1..)
        .find(|&n| {
            let rank = ((q / 100.0) * n as f64).ceil().max(1.0) as usize;
            n - rank >= MIN_TAIL
        })
        .expect("some count satisfies any q below 100")
}

/// The median of `samples` (the mean of the middle two for an even count),
/// or `None` when empty. Unlike [`percentile`] it needs no tail: it is the
/// summary for a handful of repeated set-ups.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is rank 90: exactly ten samples beyond it.
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        // One sample fewer leaves nine beyond p90.
        assert_eq!(percentile(&samples[..99], 90.0), None);
        // p50 needs only twenty.
        assert_eq!(percentile(&samples[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&samples[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let p = percentile(&samples, 90.0);
        samples.sort_by(f64::total_cmp);
        assert_eq!(p, percentile(&samples, 90.0));
        assert_eq!(p, Some(179.0));
    }

    #[test]
    fn samples_needed_matches_percentile() {
        for q in [50.0, 90.0, 99.0] {
            let n = samples_needed(q);
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert!(percentile(&samples, q).is_some(), "q={q} n={n}");
            assert!(percentile(&samples[..n - 1], q).is_none(), "q={q} n={n}");
        }
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(50.0), 20);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
