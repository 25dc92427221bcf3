//! Order statistics over raw samples, and the process's memory counters.

/// The `q` quantile of `sorted` by linear interpolation between order
/// statistics. Raw samples go in, so a reported percentile is a measured
/// value and never a histogram bucket edge.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// Median, quartiles and count of a sample.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn summarize(samples: &[f64]) -> Summary {
    let v = sorted(samples);
    Summary {
        median: quantile(&v, 0.5),
        q1: quantile(&v, 0.25),
        q3: quantile(&v, 0.75),
        n: v.len(),
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The highest percentile with at least ten samples beyond it, and its
/// value; the median when the sample is too small for any tail.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    if v.len() < 21 {
        return (50.0, quantile(&v, 0.5));
    }
    let at = v.len() - 11;
    (100.0 * at as f64 / (v.len() - 1) as f64, v[at])
}

/// A field of `/proc/self/status` in MiB (`VmHWM`: peak resident set,
/// `VmRSS`: current).
pub fn proc_status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.75, 2.5, 3.25, 4));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail(&few), (50.0, 9.5));
        let many: Vec<f64> = (0..101).map(f64::from).collect();
        assert_eq!(tail(&many), (90.0, 90.0));
    }

    #[test]
    fn memory_counters_read() {
        assert!(proc_status_mib("VmHWM") > 0.0);
        assert!(proc_status_mib("VmRSS") > 0.0);
    }
}
