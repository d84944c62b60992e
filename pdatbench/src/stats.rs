//! Order statistics and the result line.

/// Quartiles of `values` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`: `[q1, median, q3]`. With fewer
/// than two values every quartile is that value.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => [f64::NAN; 3],
        1 => [v[0]; 3],
        ld => {
            let n = 4i64;
            let m = ld as i64 + 1;
            let mut out = [0.0; 3];
            for (k, slot) in out.iter_mut().enumerate() {
                let i = k as i64 + 1;
                let j = (i * m / n).clamp(1, ld as i64 - 1);
                let delta = (i * m - j * n) as f64;
                let j = j as usize;
                *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
            }
            out
        }
    }
}

/// Median (middle quartile).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Outcome of one benchmark run: the operation counts, whether every
/// check passed, and the metrics of the selected kind.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Every check on the program's outputs passed.
    pub correct: bool,
    /// Operations attempted (requests, or traced requests).
    pub attempted: u64,
    /// Operations that were refused, exhausted or failed a check.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl RunReport {
    /// Append a metric.
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    /// Value of a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parse a result line printed by [`RunReport::to_json`].
    pub fn from_json(line: &str) -> Option<RunReport> {
        let field = |key: &str| -> Option<&str> {
            let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
            let rest = &line[at..];
            let end = rest.find([',', '}'])?;
            Some(rest[..end].trim())
        };
        let mut report = RunReport {
            correct: field("correct")? == "true",
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            metrics: Vec::new(),
        };
        let body = &line[line.find("\"metrics\": {")? + 12..];
        for chunk in body.split("}, ") {
            let name_start = chunk.find('"')? + 1;
            let name_end = name_start + chunk[name_start..].find('"')?;
            let name = &chunk[name_start..name_end];
            let v_at = chunk.find("\"value\": ")? + 9;
            let v_end = v_at + chunk[v_at..].find(',')?;
            let value: f64 = chunk[v_at..v_end].trim().parse().ok()?;
            report.push(name, "", value);
        }
        Some(report)
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// JSON has no NaN or infinity; those print as null so a broken metric is
/// visible instead of silently zero.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_round_trips() {
        let mut r = RunReport {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: Vec::new(),
        };
        r.push("wall_s", "s", 1.25);
        r.push("peak_rss_mb", "MB", 300.5);
        let back = RunReport::from_json(&r.to_json()).expect("parses");
        assert!(back.correct);
        assert_eq!(back.attempted, 12);
        assert_eq!(back.get("wall_s"), Some(1.25));
        assert_eq!(back.get("peak_rss_mb"), Some(300.5));
    }
}
