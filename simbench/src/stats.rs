//! Order statistics over timing samples.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie beyond it; with fewer, the "p90" of a run would just be one of its
//! few slowest outliers and would not repeat between runs.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the sample count it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The nearest-rank percentile value.
    pub value: f64,
    /// Samples the value was taken over.
    pub samples: usize,
    /// Samples ranked beyond the value.
    pub beyond: usize,
}

/// Nearest-rank percentile `q ∈ (0, 1)` of `samples`.
///
/// # Errors
///
/// Refuses (with the counts in the message) when fewer than
/// [`MIN_BEYOND`] samples lie beyond the requested rank.
pub fn percentile(samples: &[f64], q: f64) -> Result<Pct, String> {
    assert!(q > 0.0 && q < 1.0, "percentile rank {q} outside (0, 1)");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} over {n} samples has {beyond} beyond it; {MIN_BEYOND} needed",
            q * 100.0
        ));
    }
    Ok(Pct {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// Median (nearest-rank p50) of a non-empty sample set. Unlike a tail
/// percentile the centre of a distribution is meaningful at any count, so
/// per-run medians of a handful of set-ups or simulations are allowed.
///
/// # Panics
///
/// Panics on an empty sample set, which is a bug in the caller.
pub fn median(samples: &[f64]) -> Pct {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = sorted.len().div_ceil(2);
    Pct {
        value: sorted[rank - 1],
        samples: sorted.len(),
        beyond: sorted.len() - rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_counts() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p90 = percentile(&samples, 0.9).expect("ten beyond");
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.samples, 100);
        assert_eq!(p90.beyond, 10);
        let p50 = percentile(&samples, 0.5).expect("fifty beyond");
        assert_eq!((p50.value, p50.beyond), (50.0, 50));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let samples: Vec<f64> = (0..99).map(f64::from).collect();
        let err = percentile(&samples, 0.9).expect_err("only 9 beyond p90");
        assert!(
            err.contains("99 samples") && err.contains("9 beyond"),
            "{err}"
        );
        assert!(percentile(&[], 0.5).is_err());
        assert!(percentile(&[1.0; 19], 0.5).is_err(), "9 beyond the median");
        assert!(percentile(&[1.0; 20], 0.5).is_ok());
    }

    #[test]
    fn median_takes_any_count() {
        assert_eq!(median(&[3.0]).value, 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]).value, 3.0);
        let m = median(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((m.value, m.samples, m.beyond), (2.0, 4, 2));
    }
}
