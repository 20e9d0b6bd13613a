//! Order statistics, machine context and the JSON the benchmark prints.

use std::fmt::Write as _;

/// Median of `xs` (mean of the middle two for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0-100) of `xs`, and how many samples lie
/// strictly beyond its rank.
pub fn percentile(xs: &[f64], p: f64) -> (f64, usize) {
    if xs.is_empty() {
        return (0.0, 0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size of the last-level (L3) cache in bytes, from sysfs; 0 if unknown.
pub fn l3_bytes() -> u64 {
    let raw = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .unwrap_or_default();
    let raw = raw.trim();
    let (num, mult) = match raw.chars().last() {
        Some('K') => (&raw[..raw.len() - 1], 1024),
        Some('M') => (&raw[..raw.len() - 1], 1024 * 1024),
        _ => (raw, 1),
    };
    num.parse::<u64>().map_or(0, |n| n * mult)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
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

/// A JSON number with every digit of `x` (non-finite values become 0).
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// A flat JSON object built field by field.
#[derive(Default)]
pub struct Obj(Vec<String>);

impl Obj {
    pub fn raw(mut self, key: &str, json: String) -> Obj {
        self.0.push(format!("{}: {json}", string(key)));
        self
    }

    pub fn num(self, key: &str, x: f64) -> Obj {
        self.raw(key, number(x))
    }

    pub fn int(self, key: &str, x: u64) -> Obj {
        self.raw(key, x.to_string())
    }

    pub fn str(self, key: &str, s: &str) -> Obj {
        self.raw(key, string(s))
    }

    pub fn render(&self) -> String {
        format!("{{{}}}", self.0.join(", "))
    }
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result line: must be the last line the benchmark prints.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut m = Obj::default();
    for metric in metrics {
        m = m.raw(
            metric.name,
            Obj::default()
                .num("value", metric.value)
                .str("unit", metric.unit)
                .render(),
        );
    }
    Obj::default()
        .raw("correct", (failed == 0 && attempted > 0).to_string())
        .int("attempted", attempted)
        .int("failed", failed)
        .raw("metrics", m.render())
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_counts_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), (50.0, 50));
        assert_eq!(percentile(&xs, 90.0), (90.0, 10));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let line = result_line(
            3,
            0,
            &[Metric {
                name: "setup_s",
                unit: "s",
                value: 0.5,
            }],
        );
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#
        );
    }
}
