//! Statistics helpers and the one-line JSON result.

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        len if len % 2 == 1 => v[len / 2],
        len => (v[len / 2 - 1] + v[len / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics with units, in the order they were pushed.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), if value.is_finite() { value } else { 0.0 }, unit));
    }

    /// Prints every metric on its own line (stderr), then the result line.
    pub fn print_result(&self, correct: bool, attempted: u64, failed: u64) {
        for (name, value, unit) in &self.0 {
            eprintln!("  {name:<44} {value:>16.4} {unit}");
        }
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            body.join(", ")
        );
    }
}

fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}
