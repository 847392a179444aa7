//! The result line, checked against the metrics `BENCHMARK.json`
//! declares.

use std::collections::BTreeMap;
use std::path::Path;

use libra_core::scenario::{json_escape, Json, JsonParser};

/// Metric values by name, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let previous = self.0.insert(name.to_string(), (value, unit));
        assert!(previous.is_none(), "metric {name} emitted twice");
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.0.iter().map(|(k, &(v, u))| (k.as_str(), v, u))
    }
}

/// One declared metric: its name and unit.
pub type Declared = Vec<(String, String)>;

/// The `end_to_end` and `per_layer` metrics `BENCHMARK.json` declares.
pub fn declared(root: &Path) -> Result<(Declared, Declared), String> {
    let text = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let json = JsonParser::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<Declared, String> {
        json.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
            .iter()
            .map(|m| {
                match (m.get("name").and_then(Json::as_str), m.get("unit").and_then(Json::as_str)) {
                    (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                    _ => Err(format!("BENCHMARK.json {key} entry lacks a name or unit")),
                }
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Checks that `metrics` holds exactly the `declared` metrics, each with
/// its declared unit and a finite value.
pub fn check(metrics: &Metrics, declared: &Declared) -> Result<(), String> {
    for (name, unit) in declared {
        if !valid_name(name) {
            return Err(format!("declared metric name {name:?} is not [A-Za-z0-9_.-]+"));
        }
        match metrics.0.get(name) {
            None => return Err(format!("declared metric {name} was not emitted")),
            Some(&(_, u)) if u != unit => {
                return Err(format!("metric {name} emitted in {u}, declared in {unit}"))
            }
            Some(&(v, _)) if !v.is_finite() => return Err(format!("metric {name} is {v}")),
            Some(_) => {}
        }
    }
    if let Some(extra) = metrics.0.keys().find(|k| !declared.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric {extra} is emitted but not declared"));
    }
    Ok(())
}

/// The result line: one JSON object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_escape(name),
                json_escape(unit)
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
    fn names_follow_the_contract() {
        assert!(valid_name("sweep.self_s"));
        assert!(valid_name("setup_s"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn check_catches_missing_extra_and_mislabelled_metrics() {
        let declared = vec![("a".to_string(), "s".to_string())];
        let mut m = Metrics::default();
        assert!(check(&m, &declared).unwrap_err().contains("not emitted"));
        m.put("a", 1.0, "ms");
        assert!(check(&m, &declared).unwrap_err().contains("declared in s"));
        let mut m = Metrics::default();
        m.put("a", 1.0, "s");
        assert!(check(&m, &declared).is_ok());
        m.put("b", 1.0, "s");
        assert!(check(&m, &declared).unwrap_err().contains("not declared"));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.25, "s");
        let line = result_line(true, 3, 0, &m);
        let v = JsonParser::parse(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(3.0));
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
