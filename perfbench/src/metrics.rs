//! Named metric values and the result line.

use crate::{END_TO_END, PER_LAYER};
use std::fmt::Write as _;

/// Values for every end-to-end and per-layer metric, all starting at 0.
#[derive(Debug, Clone)]
pub struct Metrics {
    values: Vec<(&'static str, &'static str, f64)>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self {
            values: END_TO_END
                .iter()
                .chain(PER_LAYER)
                .map(|&(n, u)| (n, u, 0.0))
                .collect(),
        }
    }
}

impl Metrics {
    /// Set a metric.  Panics on a name that is in neither list, so a typo
    /// cannot silently drop a value.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown metric {name:?}"));
        slot.2 = value;
    }

    /// A metric's value.
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or_else(|| panic!("unknown metric {name:?}"), |v| v.2)
    }

    /// `(name, unit, value)` of the end-to-end metrics (`traced == false`)
    /// or the per-layer ones.
    pub fn selected(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        let set = if traced { PER_LAYER } else { END_TO_END };
        set.iter().map(|&(n, u)| (n, u, self.get(n))).collect()
    }
}

/// A number as JSON, with every digit Rust's shortest round-trip form
/// gives; a non-finite value (a failed operation's latency) becomes
/// `1e300`, which JSON can carry and no measurement reaches.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "1e300".to_string()
    }
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_has_a_slot() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.5);
        m.set("trace.unattributed_s", 0.25);
        assert_eq!(m.selected(false).len(), END_TO_END.len());
        assert_eq!(m.selected(true).len(), PER_LAYER.len());
        assert_eq!(m.get("setup_s"), 1.5);
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn unknown_names_panic() {
        Metrics::default().set("nope", 1.0);
    }

    #[test]
    fn result_line_is_json_with_full_digits() {
        let line = result_line(true, 3, 0, &[("solve_s", "s", 0.123456789012345)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"solve_s\": {\"value\": 0.123456789012345, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(f64::INFINITY), "1e300");
    }

    /// The names this program prints must be the names `BENCHMARK.json`
    /// declares, in both sections, with the same units.
    #[test]
    fn printed_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section end")];
            body.split('{')
                .skip(1)
                .map(|obj| (field(obj, "name"), field(obj, "unit")))
                .collect()
        };
        let want = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), want(END_TO_END));
        assert_eq!(section("per_layer"), want(PER_LAYER));
        let workloads: Vec<String> = section("workloads").into_iter().map(|(n, _)| n).collect();
        let names: Vec<String> = crate::cli::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, names);
    }

    /// The string value of `"key": "..."` inside one JSON object's text.
    fn field(obj: &str, key: &str) -> String {
        let Some(at) = obj.find(&format!("\"{key}\"")) else {
            return String::new();
        };
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"').expect("value start") + 1;
        let close = open + rest[open..].find('"').expect("value end");
        rest[open..close].to_string()
    }
}
