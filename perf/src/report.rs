//! Metric collection, order statistics and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer values of one operation (a pass or a batch), keyed by the
/// metric name they are reported under.
pub type Sample = BTreeMap<String, f64>;

/// Add `value` to `name` in `sample`.
pub fn bump(sample: &mut Sample, name: &str, value: f64) {
    *sample.entry(name.to_string()).or_insert(0.0) += value;
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Microseconds since `t`.
pub fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// The median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// The `p`-th percentile of `v` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// Wall milliseconds of the same operation run three ways, one of each
/// per round of a traced run.
#[derive(Default)]
pub struct Walls {
    /// Untraced, on the default pool.
    pub untraced_ms: Vec<f64>,
    /// Traced, on the default pool.
    pub traced_ms: Vec<f64>,
    /// Untraced, on one data-plane thread.
    pub one_thread_ms: Vec<f64>,
}

/// One operation of a measured loop: a pass over the cells or a batch.
/// Its times are process CPU time (see [`crate::clock`]).
pub struct Op {
    /// CPU seconds the client spent on it, from its first step (on
    /// `serve-refresh`, the re-registration) until its answers were checked.
    pub loop_s: f64,
    /// Its CPU milliseconds (a batch: first submit to end of `run_all`).
    pub cpu_ms: f64,
    /// Its simulated milliseconds (sum of its queries' makespans).
    pub sim_ms: f64,
    /// Its queries answered correctly.
    pub completed: usize,
}

/// Windows the windowed metrics (`qps`, `batch_p90_ms`) cut a run into.
pub const WINDOWS: usize = 10;

/// `ops` cut into [`WINDOWS`] consecutive windows of near-equal length
/// (fewer when there are fewer operations). The median over windows keeps
/// a burst of load from other processes on the host, shorter than half
/// the run, out of the result.
pub fn windows(ops: &[Op]) -> Vec<&[Op]> {
    let n = WINDOWS.min(ops.len()).max(1);
    (0..n).map(|i| &ops[i * ops.len() / n..(i + 1) * ops.len() / n]).collect()
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Queries attempted in the measured part of the run.
    pub attempted: u64,
    /// Queries that errored, were refused or answered wrongly.
    pub failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    /// Count one attempted query; a failed one is also reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    /// Record a metric with the number of samples it summarises.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric { name: name.into(), value, unit, samples });
    }

    /// Record the median over operations of every name in `samples`, each
    /// with `unit_of(name)`.
    pub fn add_medians(&mut self, samples: &[Sample], unit_of: impl Fn(&str) -> &'static str) {
        let mut names: Vec<&String> = samples.iter().flat_map(|s| s.keys()).collect();
        names.sort();
        names.dedup();
        for name in names {
            let values: Vec<f64> =
                samples.iter().map(|s| s.get(name).copied().unwrap_or(0.0)).collect();
            self.add(name.clone(), median(&values), unit_of(name), values.len());
        }
    }

    /// True when queries ran, all succeeded, and every metric is finite.
    pub fn correct(&self) -> bool {
        self.attempted > 0
            && self.failed == 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Print one line per metric with its sample count, then the JSON
    /// result object as the last line of standard output.
    pub fn print(&self) {
        for m in &self.metrics {
            println!("{:<28} {:>16.6} {:<6} n={}", m.name, m.value, m.unit, m.samples);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 90.0), 4.6);
        assert_eq!(median(&[2.0, 1.0]), 1.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windows_split_the_run_evenly() {
        let lens = |n: usize| -> Vec<usize> {
            let ops: Vec<Op> = (0..n)
                .map(|i| Op { loop_s: i as f64, cpu_ms: 0.0, sim_ms: 0.0, completed: 0 })
                .collect();
            windows(&ops).iter().map(|w| w.len()).collect()
        };
        assert_eq!(lens(0), [0]);
        assert_eq!(lens(3), [1, 1, 1]);
        assert_eq!(lens(95), [9, 10, 9, 10, 9, 10, 9, 10, 9, 10]);
        assert_eq!(lens(1000), [100; 10]);
    }
}
