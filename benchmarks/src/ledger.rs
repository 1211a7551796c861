//! The run's output: a header, one line per metric, and the result object
//! the harness reads from the last line.
//!
//! A [`Ledger`] is opened over one of the catalog's metric lists and must be
//! filled exactly: an unknown name, a second value for a name, a missing
//! value or a non-finite one is a bug in the benchmark and panics.

use crate::catalog::MetricDef;

pub struct Ledger {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Ledger {
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Ledger {
            defs,
            values: vec![None; defs.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.values[slot].is_none(), "metric {name} emitted twice");
        self.values[slot] = Some(value);
    }

    /// Names in this ledger that start with `prefix`, with the remainder.
    pub fn names_under(&self, prefix: &str) -> Vec<(&'static str, &'static str)> {
        self.defs
            .iter()
            .filter_map(|d| d.name.strip_prefix(prefix).map(|rest| (d.name, rest)))
            .collect()
    }

    fn rows(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().zip(&self.values).map(|(d, v)| {
            (
                d,
                v.unwrap_or_else(|| panic!("metric {} was never emitted", d.name)),
            )
        })
    }

    /// Prints every metric by name with its unit, then the result object as
    /// the last line of standard output.
    pub fn print(&self, workload: &str, correct: bool, attempted: u64, failed: u64) {
        for (d, v) in self.rows() {
            println!("METRIC {workload} {} {v} {}", d.name, d.unit);
        }
        let metrics: Vec<String> = self
            .rows()
            .map(|(d, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        );
    }
}
