//! Summary helpers shared by every workload: medians, percentiles that
//! refuse to extrapolate, rates and per-instruction costs.

/// Samples a percentile must have strictly beyond it before it is
/// reported; below this a "p90" would silently be the maximum.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (0 < p < 100) of `samples` by the nearest-rank
/// method, or an error when fewer than [`MIN_TAIL_SAMPLES`] samples lie
/// beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !(p > 0.0 && p < 100.0) {
        return Err(format!("percentile {p} outside (0, 100)"));
    }
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{p} needs {MIN_TAIL_SAMPLES} samples beyond it, {n} samples leave {}",
            n.saturating_sub(rank.max(1))
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median of `samples` (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> Result<f64, String> {
    if samples.is_empty() {
        return Err("median of no samples".into());
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Ok(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// `count` units per second over `seconds`.
pub fn rate(count: f64, seconds: f64) -> Result<f64, String> {
    if seconds > 0.0 {
        Ok(count / seconds)
    } else {
        Err(format!("rate over a non-positive interval ({seconds} s)"))
    }
}

/// Nanoseconds per instruction; 0 when no instruction was processed
/// (the layer was not called).
pub fn ns_per_inst(seconds: f64, insts: u64) -> f64 {
    if insts == 0 {
        0.0
    } else {
        seconds * 1e9 / insts as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert!(percentile(&ramp(99), 90.0).is_err());
        assert_eq!(percentile(&ramp(100), 90.0), Ok(90.0));
        assert_eq!(percentile(&ramp(200), 90.0), Ok(180.0));
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert!(percentile(&ramp(19), 50.0).is_err());
        assert_eq!(percentile(&ramp(20), 50.0), Ok(10.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(120);
        v.reverse();
        assert_eq!(percentile(&v, 90.0), Ok(108.0));
    }

    #[test]
    fn percentile_rejects_out_of_range() {
        assert!(percentile(&ramp(1000), 0.0).is_err());
        assert!(percentile(&ramp(1000), 100.0).is_err());
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Ok(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Ok(2.5));
        assert!(median(&[]).is_err());
    }

    #[test]
    fn rate_and_ns_per_inst() {
        assert_eq!(rate(10.0, 2.0), Ok(5.0));
        assert!(rate(1.0, 0.0).is_err());
        assert_eq!(ns_per_inst(2.0, 1_000_000_000), 2.0);
        assert_eq!(ns_per_inst(1.0, 0), 0.0);
    }
}
