//! Order statistics. Two conventions are needed and kept apart by name:
//! `percentile` (linear interpolation over positions, for latencies) and
//! `quartiles` (Python's `statistics.quantiles(v, n=4)`, the method the
//! acceptance check uses for run-to-run spread).

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `p`-th percentile (0..=100) of an ascending slice, linear interpolation.
pub fn percentile(ascending: &[f64], p: f64) -> f64 {
    match ascending {
        [] => f64::NAN,
        [only] => *only,
        _ => {
            let rank = p / 100.0 * (ascending.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(ascending.len() - 1);
            ascending[lo] + (ascending[hi] - ascending[lo]) * (rank - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let cut = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile distance as a share of the median (0 for one sample).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_handles_edges() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 30.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert_eq!(percentile(&v, 87.5), 45.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        assert_eq!(spread(&[16.0, 1.0, 8.0, 2.0, 4.0]), 10.5 / 4.0);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
