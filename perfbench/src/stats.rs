//! Order statistics with the sample-count rule the report follows: a
//! percentile is only reported when at least ten samples lie beyond it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q` quantile (`0 < q < 1`) of `sorted` by the nearest-rank rule,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The `q` quantile of samples taken in consecutive time slices, robust
/// to a disturbed slice. Consecutive slices are pooled into groups just
/// large enough to support `q` (a short remainder joins the last group),
/// and the result is the median of the groups' quantiles. `None` when all
/// slices together cannot support `q`.
pub fn sliced_percentile(slices: &[&[f64]], q: f64) -> Option<f64> {
    let mut groups: Vec<Vec<f64>> = Vec::new();
    let mut current: Vec<f64> = Vec::new();
    for s in slices {
        current.extend_from_slice(s);
        current.sort_by(f64::total_cmp);
        if percentile(&current, q).is_some() {
            groups.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        let last = groups.last_mut()?;
        last.extend(current);
        last.sort_by(f64::total_cmp);
    }
    let values: Vec<f64> = groups.iter().filter_map(|g| percentile(g, q)).collect();
    median(&values)
}

/// The median of `values` (any order), or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(2000), 0.99), Some(1980.0));
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(percentile(&ramp(99), 0.90), None);
        assert_eq!(percentile(&ramp(100), 0.90), Some(90.0));
    }

    #[test]
    fn p50_of_a_small_sample() {
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn slices_pool_until_the_percentile_is_supported() {
        let a = ramp(400);
        // Two slices of 400 cannot support p99; three pooled can.
        assert_eq!(sliced_percentile(&[&a, &a], 0.99), None);
        let mut pooled = [a.clone(), a.clone(), a.clone()].concat();
        pooled.sort_by(f64::total_cmp);
        assert_eq!(
            sliced_percentile(&[&a, &a, &a], 0.99),
            percentile(&pooled, 0.99)
        );
    }

    #[test]
    fn a_disturbed_slice_does_not_move_the_median() {
        let calm = ramp(100);
        let slow: Vec<f64> = calm.iter().map(|x| x * 10.0).collect();
        let got = sliced_percentile(&[&calm, &slow, &calm], 0.5);
        assert_eq!(got, Some(50.0));
    }

    #[test]
    fn a_short_remainder_joins_the_last_group() {
        let full = ramp(20);
        let short = [1000.0; 5];
        // Groups [full] and [full + short]: their p50s are 10 and 13.
        assert_eq!(sliced_percentile(&[&full, &full, &short], 0.5), Some(11.5));
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
