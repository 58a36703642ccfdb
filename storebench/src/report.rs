//! Result output: statistics, the JSON result line, and the run record
//! (seed, commit, machine fingerprint).

use crate::driver::Recorder;
use std::fmt::Write as _;

/// Percentile `q` in `[0, 1]` by linear interpolation between order
/// statistics; `None` when there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = q * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (rank - lo as f64))
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run prints.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    /// Store calls that failed or disagreed with the model.
    pub failed: u64,
    /// Failures of the benchmark itself: missing samples, attribution.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra `"key": <json>` pairs for the run record.
    pub record: Vec<(String, String)>,
}

impl Report {
    /// A report carrying `rec`'s failure tally; its first failure goes
    /// into the run record.
    pub fn new(rec: &Recorder) -> Self {
        let mut r = Report {
            attempted: rec.attempted,
            failed: rec.failed,
            ..Report::default()
        };
        if let Some(f) = &rec.first_failure {
            r.note("first_failure", json_str(f));
        }
        r
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.failures.push(format!("metric {name} is not finite"));
        }
        self.metrics.push(Metric { name, value, unit });
    }

    /// A metric from samples; a missing sample set is a failure.
    pub fn metric_opt(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) => self.metric(name, v, unit),
            None => {
                self.failures.push(format!("metric {name} has no samples"));
                self.metrics.push(Metric {
                    name,
                    value: 0.0,
                    unit,
                });
            }
        }
    }

    pub fn note(&mut self, key: &str, json: String) {
        self.record.push((key.to_string(), json));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The run record line: everything needed to place the result.
    pub fn record_line(&self) -> String {
        let mut out = String::from("{\"record\": {");
        let mut first = true;
        for (k, v) in &self.record {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(out, "{}: {v}", json_str(k));
        }
        let failures: Vec<String> = self.failures.iter().map(|f| json_str(f)).collect();
        let _ = write!(out, ", \"failures\": [{}]}}}}", failures.join(", "));
        out
    }

    /// The result line, printed last.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(m.name),
                    if m.value.is_finite() { m.value } else { 0.0 },
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed + self.failures.len() as u64,
            metrics.join(", ")
        )
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The checked-out commit, read from `.git` when there is one.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `{"nproc", "cpu", "kernel"}` of this machine.
pub fn machine() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"kernel\": {}}}",
        json_str(&cpu),
        json_str(&kernel)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 0.5), Some(2.5));
        assert_eq!(percentile(&s, 1.0), Some(4.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn result_line_shape() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("setup_s", 0.25, "s");
        assert_eq!(
            r.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
