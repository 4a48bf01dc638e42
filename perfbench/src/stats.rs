//! Quantiles and the result line.

use std::ops::Range;

/// The `q` quantile of `values` (linear interpolation between closest
/// ranks); `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Most blocks a run's time window, or its samples in
/// [`block_quantile`], are cut into.
pub const BLOCKS: usize = 20;

/// Fewest samples per block: three beyond the 90th percentile. The median
/// over many blocks, not one block, is what has to be steady.
pub const MIN_BLOCK: usize = 30;

/// The [`cycle_median`] of each block's `q` quantile. `blocks` are ranges
/// of `values`; without them, time-ordered `values` are cut into up to
/// [`BLOCKS`] consecutive blocks of at least [`MIN_BLOCK`] samples. Host
/// interference that slows part of a run moves the affected blocks only.
pub fn block_quantile(
    values: &[f64],
    blocks: &[Range<usize>],
    period: usize,
    q: f64,
) -> Option<f64> {
    let even: Vec<Range<usize>>;
    let blocks = if blocks.is_empty() {
        let n = (values.len() / MIN_BLOCK).clamp(1, BLOCKS);
        even = (0..n)
            .map(|b| b * values.len() / n..(b + 1) * values.len() / n)
            .collect();
        &even
    } else {
        blocks
    };
    let per_block: Vec<f64> = blocks
        .iter()
        .map(|r| quantile(&values[r.clone()], q).unwrap_or(f64::NAN))
        .collect();
    cycle_median(&per_block, period)
}

/// One figure for a run from one figure per block (NaN: the block had no
/// samples). A run that repeats a cycle of `period` blocks takes, at each
/// position of the cycle, the median over cycles, and reports the mean of
/// those positions; with `period` 1 this is the median over blocks.
pub fn cycle_median(per_block: &[f64], period: usize) -> Option<f64> {
    let period = period.max(1);
    let at: Vec<f64> = (0..period)
        .filter_map(|k| {
            let cycles: Vec<f64> = per_block
                .iter()
                .skip(k)
                .step_by(period)
                .copied()
                .filter(|v| !v.is_nan())
                .collect();
            median(&cycles)
        })
        .collect();
    (!at.is_empty()).then(|| at.iter().sum::<f64>() / at.len() as f64)
}

/// One named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Appends `metric` to `out`.
pub fn push(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.to_owned(),
        value,
        unit,
    });
}

/// A JSON number with all its digits (non-finite values cannot occur in a
/// metric; they render as 0 rather than as invalid JSON).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Resets the process's peak resident set to its current one (writes `5`
/// to `/proc/self/clear_refs`), so that [`peak_rss_mb`] covers only what
/// follows. `false` when the kernel does not allow it, and the peak keeps
/// covering the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `/proc/self/status` `VmHWM`: the process's peak resident set since
/// start or the last [`reset_peak_rss`], in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host's CPU time counters from `/proc/stat` (all zero where there
/// is none).
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    pub fn now() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|t| t.parse().ok())
            .collect();
        CpuTicks {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().sum(),
        }
    }

    /// Percent of the CPU time since `self` that the hypervisor gave to
    /// other guests.
    pub fn steal_pct_since(&self) -> f64 {
        let now = CpuTicks::now();
        let total = now.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        now.steal.saturating_sub(self.steal) as f64 * 100.0 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn block_quantile_ignores_a_slow_block() {
        let mut v = vec![1.0; 1000];
        v[..100].iter_mut().for_each(|x| *x = 50.0);
        assert_eq!(block_quantile(&v, &[], 1, 0.9), Some(1.0));
        assert_eq!(block_quantile(&[3.0, 1.0, 2.0], &[], 1, 0.5), Some(2.0));
        assert_eq!(
            block_quantile(&[9.0, 1.0, 2.0, 3.0], &[0..1, 1..4], 1, 0.5),
            Some(5.5)
        );
        assert_eq!(block_quantile(&[1.0], &[0..1, 1..1], 1, 0.5), Some(1.0));
    }

    #[test]
    fn cycle_median_compares_like_positions() {
        // Three cycles of a rising profile 1, 2, 4; the middle cycle slow.
        let v = [1.0, 2.0, 4.0, 10.0, 20.0, 40.0, 1.0, 2.0, 4.0];
        assert_eq!(cycle_median(&v, 3), Some(7.0 / 3.0));
        assert_eq!(cycle_median(&v, 1), Some(4.0));
        assert_eq!(cycle_median(&[f64::NAN, 2.0], 2), Some(2.0));
        assert_eq!(cycle_median(&[], 2), None);
    }
}
