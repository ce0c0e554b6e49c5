//! Pure helpers: medians, the tail-percentile sample rule, failure
//! shares, metric records and the one-line JSON result.

/// Samples a percentile must have beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN measurements"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// True when a percentile `p` (e.g. `0.99`) of `samples` values has at
/// least [`TAIL_SAMPLES`] samples beyond it, so that it may be reported.
pub fn tail_supported(samples: usize, p: f64) -> bool {
    // Integer arithmetic in per-mille avoids 1000 × 0.01 rounding to 9.99.
    let beyond_per_mille = ((1.0 - p) * 1000.0).round() as usize;
    samples * beyond_per_mille >= TAIL_SAMPLES * 1000
}

/// Share of planned events that produced no prediction: failed (dead
/// letters) plus shed (refused by admission), against every event planned.
pub fn failed_share(failed: usize, shed: usize, planned: usize) -> f64 {
    assert!(planned > 0, "a run plans at least one event");
    (failed + shed) as f64 / planned as f64
}

/// True for a metric name of the form `[A-Za-z0-9_.-]+`.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// One reported measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
    /// The measured value, as measured.
    pub value: f64,
}

impl Metric {
    /// A metric record.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Renders the result object printed as the benchmark's last line:
/// exactly the keys `correct`, `attempted`, `failed` and `metrics`.
///
/// # Panics
///
/// Panics on an invalid metric name or a non-finite value — both are
/// bugs in the benchmark, never in the measured program.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(valid_metric_name(&m.name), "bad metric name {:?}", m.name);
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_is_withheld_below_ten_samples_beyond_it() {
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(1000, 0.99));
        assert!(tail_supported(5000, 0.99));
        assert!(!tail_supported(99, 0.9));
        assert!(tail_supported(100, 0.9));
        assert!(tail_supported(20, 0.5));
    }

    #[test]
    fn failed_share_counts_shed_and_failed_against_planned() {
        assert_eq!(failed_share(0, 0, 10), 0.0);
        assert_eq!(failed_share(1, 0, 10), 0.1);
        assert_eq!(failed_share(0, 2, 10), 0.2);
        assert_eq!(failed_share(3, 2, 10), 0.5);
    }

    #[test]
    fn metric_names_follow_the_pattern() {
        assert!(valid_metric_name("latency_p99_ms"));
        assert!(valid_metric_name("wal.fsync_ns_per_commit"));
        assert!(valid_metric_name("setup-2"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("p99 ms"));
        assert!(!valid_metric_name("a/b"));
        assert!(!valid_metric_name("ünit"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            12,
            0,
            &[
                Metric::new("latency_p50_ms", "ms", 1.25),
                Metric::new("accuracy", "ratio", 1.0),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"accuracy\": {\"value\": 1, \"unit\": \"ratio\"}}}"
        );
        let parsed: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        let keys: Vec<&str> = parsed
            .as_map()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
