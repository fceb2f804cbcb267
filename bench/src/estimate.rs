//! Order statistics for the run report.
//!
//! The host's noise is one-sided — an op is only ever slowed down, with
//! on-CPU time equal to wall time (no steal to subtract) — so a run reads
//! its numbers from the fast side: the end-to-end latencies from every op's
//! **fastest repetition** across rounds, the per-layer probes' per-round
//! numbers from their **quiet quartile**.

/// Which side of a metric is the quiet one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Times, sizes: the lower quartile is the quiet one.
    Lower,
    /// Rates: the upper quartile is the quiet one.
    Higher,
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `values` by linear interpolation
/// between the two nearest order statistics (position `p · (n − 1)`).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let position = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = position.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (position - below as f64)
}

/// The quiet quartile of a per-round sample.
pub fn quiet_quartile(values: &[f64], better: Better) -> f64 {
    match better {
        Better::Lower => quantile(values, 0.25),
        Better::Higher => quantile(values, 0.75),
    }
}

/// The fastest repetition of every op: `rounds` yields one latency list per
/// round, each holding the same ops in the same order.
///
/// # Panics
///
/// Panics when the rounds differ in length.
pub fn fastest_per_op<'a>(rounds: impl Iterator<Item = &'a [u64]>) -> Vec<f64> {
    let mut fastest: Option<Vec<u64>> = None;
    for round in rounds {
        match &mut fastest {
            None => fastest = Some(round.to_vec()),
            Some(best) => {
                assert_eq!(best.len(), round.len(), "rounds repeat the same ops");
                for (best, &ns) in best.iter_mut().zip(round) {
                    *best = (*best).min(ns);
                }
            }
        }
    }
    fastest
        .unwrap_or_default()
        .into_iter()
        .map(|ns| ns as f64)
        .collect()
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_vectors() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.75), 4.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        // Interpolation between order statistics.
        assert_eq!(quantile(&[10.0, 20.0], 0.5), 15.0);
        assert_eq!(quantile(&[10.0, 20.0, 40.0], 0.25), 15.0);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn p95_of_200_samples_leaves_ten_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = quantile(&v, 0.95);
        assert!((p95 - 190.05).abs() < 1e-9);
        assert_eq!(v.iter().filter(|&&x| x > p95).count(), 10);
    }

    #[test]
    fn quiet_quartile_picks_the_fast_side() {
        let times = [1.0, 1.1, 1.2, 5.0, 9.0];
        assert_eq!(quiet_quartile(&times, Better::Lower), 1.1);
        let rates = [100.0, 98.0, 97.0, 60.0, 20.0];
        assert_eq!(quiet_quartile(&rates, Better::Higher), 98.0);
    }

    #[test]
    fn fastest_per_op_takes_each_ops_minimum_across_rounds() {
        let rounds: [&[u64]; 3] = [&[5, 9, 7], &[6, 2, 8], &[4, 3, 9]];
        assert_eq!(fastest_per_op(rounds.into_iter()), [4.0, 2.0, 7.0]);
        assert!(fastest_per_op(std::iter::empty()).is_empty());
    }

    #[test]
    fn mean_of_known_vectors() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
