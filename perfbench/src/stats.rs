//! Order statistics and process memory.

/// Quantile `q` in `[0, 1]` by linear interpolation between the closest
/// ranks; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if v[lo] == v[hi] {
        // Also keeps two infinite samples from interpolating to NaN.
        return v[lo];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median; 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        let ys: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&ys, 0.9), 91.0);
        assert_eq!(median(&[]), 0.0);
        let inf = f64::INFINITY;
        assert_eq!(median(&[1.0, inf, inf]), inf);
        assert_eq!(quantile(&[1.0, 2.0, inf], 0.9), inf);
    }

    #[test]
    fn reads_peak_rss() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
