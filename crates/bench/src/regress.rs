//! Exact regression gate between two benchmark reports.
//!
//! Every cell of the smoke suite is contention-free virtual time and
//! reproduces bit for bit, so `eag regress --baseline BENCH_x.json` needs no
//! statistics. It joins the two reports' cells on their identity
//! ([`BenchEntry::label`], [`RecoveryEntry::label`], [`SessionEntry::label`])
//! and fails on any difference at all:
//!
//! * a matched cell with any field that differs — latency, the paper's six
//!   cost counters, the copy probe, survivors, a session percentile or
//!   throughput — is **changed**, printed with every differing field as
//!   `old -> new`;
//! * a cell present on one side only is **unmatched**.
//!
//! A faster cell fails like a slower one: the baseline is a record of what
//! the code does, and an intentional change regenerates it.

use crate::report::{BenchEntry, BenchReport, RecoveryEntry};
use crate::sessions::SessionEntry;
use serde::{Serialize, Value};
use std::fmt;

/// One field of a matched cell whose value differs.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldChange {
    /// Dotted path of the field within the cell, e.g. `metrics.enc_rounds`.
    pub field: String,
    /// The baseline's value, as JSON.
    pub old: String,
    /// The current report's value, as JSON.
    pub new: String,
}

/// A cell the gate failed on.
#[derive(Debug, Clone, PartialEq)]
pub enum CellDiff {
    /// Present in both reports with at least one differing field.
    Changed {
        /// The cell's identity label.
        label: String,
        /// Every differing field, in declaration order.
        fields: Vec<FieldChange>,
    },
    /// Present in one report only.
    Unmatched {
        /// The cell's identity label.
        label: String,
        /// The report the cell is missing from: `"baseline"` or `"current"`.
        missing_from: &'static str,
    },
}

impl fmt::Display for CellDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellDiff::Changed { label, fields } => {
                write!(f, "CHANGED   {label}")?;
                for c in fields {
                    write!(f, "\n          {}: {} -> {}", c.field, c.old, c.new)?;
                }
                Ok(())
            }
            CellDiff::Unmatched {
                label,
                missing_from,
            } => write!(f, "UNMATCHED {label} (missing from {missing_from})"),
        }
    }
}

/// Full gate outcome.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Cells present in both reports.
    pub compared: usize,
    /// Every changed or unmatched cell: current-report order, then the
    /// baseline-only cells.
    pub diffs: Vec<CellDiff>,
}

impl GateReport {
    /// True when every cell matched and none changed.
    pub fn pass(&self) -> bool {
        self.diffs.is_empty()
    }

    /// Number of matched cells that changed.
    pub fn changed(&self) -> usize {
        self.diffs
            .iter()
            .filter(|d| matches!(d, CellDiff::Changed { .. }))
            .count()
    }

    /// Number of cells present in one report only.
    pub fn unmatched(&self) -> usize {
        self.diffs.len() - self.changed()
    }

    /// Joins one section of the two reports on `label` and records every
    /// difference.
    fn join<T: Serialize>(&mut self, baseline: &[T], current: &[T], label: fn(&T) -> String) {
        let base: Vec<(String, &T)> = baseline.iter().map(|c| (label(c), c)).collect();
        let cur: Vec<(String, &T)> = current.iter().map(|c| (label(c), c)).collect();
        for (l, c) in &cur {
            match base.iter().find(|(bl, _)| bl == l) {
                Some((_, b)) => {
                    self.compared += 1;
                    let mut fields = Vec::new();
                    field_changes("", &b.to_value(), &c.to_value(), &mut fields);
                    if !fields.is_empty() {
                        self.diffs.push(CellDiff::Changed {
                            label: l.clone(),
                            fields,
                        });
                    }
                }
                None => self.diffs.push(CellDiff::Unmatched {
                    label: l.clone(),
                    missing_from: "baseline",
                }),
            }
        }
        for (l, _) in &base {
            if !cur.iter().any(|(cl, _)| cl == l) {
                self.diffs.push(CellDiff::Unmatched {
                    label: l.clone(),
                    missing_from: "current",
                });
            }
        }
    }
}

/// Appends every leaf of `old` that differs from `new` to `out`. Objects
/// with the same field names recurse; anything else compares by its JSON
/// text, so equality is the byte equality `cmp` sees.
fn field_changes(path: &str, old: &Value, new: &Value, out: &mut Vec<FieldChange>) {
    match (old, new) {
        (Value::Object(a), Value::Object(b))
            if a.iter().map(|(k, _)| k).eq(b.iter().map(|(k, _)| k)) =>
        {
            for ((k, x), (_, y)) in a.iter().zip(b) {
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                field_changes(&sub, x, y, out);
            }
        }
        _ => {
            let json = |v: &Value| serde_json::to_string(v).expect("value-tree serialization");
            let (old, new) = (json(old), json(new));
            if old != new {
                out.push(FieldChange {
                    field: path.to_string(),
                    old,
                    new,
                });
            }
        }
    }
}

/// Compares `current` against `baseline`, cell by cell.
pub fn compare(baseline: &BenchReport, current: &BenchReport) -> GateReport {
    let mut gate = GateReport::default();
    gate.join(&baseline.entries, &current.entries, BenchEntry::label);
    gate.join(&baseline.recovery, &current.recovery, RecoveryEntry::label);
    gate.join(&baseline.sessions, &current.sessions, SessionEntry::label);
    gate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{run_suite, CopyProbe, RecoveryCase, SuiteCase};
    use crate::sessions::SessionCase;
    use crate::SimConfig;
    use eag_core::{Algorithm, Collective};
    use eag_netsim::Mapping;

    fn tiny_report() -> BenchReport {
        let cfg = SimConfig::deterministic(8, 2, Mapping::Block, "noleland");
        let cases = [Algorithm::Hs1, Algorithm::ORd].map(|algo| SuiteCase {
            cfg: cfg.clone(),
            collective: Collective::Allgather(algo),
            msg_bytes: 1024,
        });
        run_suite("unit", "noleland", &cases, &[], &[])
    }

    fn recovery_report() -> BenchReport {
        let case = RecoveryCase {
            cfg: SimConfig::deterministic(8, 2, Mapping::Block, "noleland"),
            collective: Collective::Allgather(Algorithm::ORing),
            msg_bytes: 512,
            crashes: vec![eag_netsim::Crash::before(0, 0)],
        };
        run_suite("unit", "noleland", &[], &[case], &[])
    }

    fn session_report() -> BenchReport {
        let case = SessionCase {
            algo: Algorithm::ORing,
            p: 8,
            nodes: 2,
            msg_bytes: 1024,
            sessions: 32,
            physical_nodes: 4,
            profile: "noleland".into(),
        };
        run_suite("unit", "noleland", &[], &[], &[case])
    }

    /// Asserts the gate failed on exactly `cell`, changing exactly `fields`.
    fn assert_changed(out: &GateReport, cell: &str, fields: &[&str]) {
        assert!(!out.pass());
        match out.diffs.as_slice() {
            [CellDiff::Changed { label, fields: got }] => {
                assert_eq!(label, cell);
                let got: Vec<_> = got.iter().map(|c| c.field.as_str()).collect();
                assert_eq!(got, fields);
            }
            other => panic!("expected one changed cell, got {other:#?}"),
        }
        assert!(out.diffs[0].to_string().contains(cell));
    }

    #[test]
    fn identical_rerun_passes() {
        let out = compare(&tiny_report(), &tiny_report());
        assert!(out.pass(), "{:#?}", out.diffs);
        assert_eq!(out.compared, 2);
    }

    #[test]
    fn twenty_percent_slowdown_fails() {
        let base = tiny_report();
        let mut cur = base.clone();
        cur.entries[1].latency_us *= 1.20;
        let out = compare(&base, &cur);
        assert_changed(&out, &base.entries[1].label(), &["latency_us"]);
        let CellDiff::Changed { fields, .. } = &out.diffs[0] else {
            unreachable!()
        };
        let json = |x: f64| serde_json::to_string(&x).unwrap();
        assert_eq!(fields[0].old, json(base.entries[1].latency_us));
        assert_eq!(fields[0].new, json(cur.entries[1].latency_us));
    }

    #[test]
    fn latency_speedup_fails() {
        // A faster cell is a changed cell: the baseline must be regenerated
        // alongside the change that explains it.
        let base = tiny_report();
        let mut cur = base.clone();
        cur.entries[0].latency_us *= 0.5;
        assert_changed(
            &compare(&base, &cur),
            &base.entries[0].label(),
            &["latency_us"],
        );
        // However small.
        let mut cur = base.clone();
        cur.entries[0].latency_us = f64::from_bits(cur.entries[0].latency_us.to_bits() - 1);
        assert_changed(
            &compare(&base, &cur),
            &base.entries[0].label(),
            &["latency_us"],
        );
    }

    #[test]
    fn metrics_drift_fails() {
        let base = tiny_report();
        let mut cur = base.clone();
        cur.entries[0].metrics.enc_rounds += 1;
        let out = compare(&base, &cur);
        assert_changed(&out, &base.entries[0].label(), &["metrics.enc_rounds"]);
    }

    #[test]
    fn copy_probe_drift_fails() {
        let mut base = tiny_report();
        base.entries[0].copy_probe = Some(CopyProbe {
            memcpy_bytes: 1000,
            buf_allocs: 10,
        });
        let mut cur = base.clone();
        cur.entries[0].copy_probe = Some(CopyProbe {
            memcpy_bytes: 2000,
            buf_allocs: 10,
        });
        let out = compare(&base, &cur);
        assert_changed(&out, &base.entries[0].label(), &["copy_probe.memcpy_bytes"]);
        // A probe that appears where there was none changes the cell too.
        cur.entries[0].copy_probe = None;
        let out = compare(&base, &cur);
        assert_changed(&out, &base.entries[0].label(), &["copy_probe"]);
        // Identical probes pass.
        assert!(compare(&base, &base.clone()).pass());
    }

    #[test]
    fn unmatched_entries_fail() {
        let base = tiny_report();
        let mut cur = base.clone();
        let gone = cur.entries.pop().unwrap();
        let out = compare(&base, &cur);
        assert!(!out.pass());
        assert_eq!((out.compared, out.changed(), out.unmatched()), (1, 0, 1));
        assert_eq!(
            out.diffs[0],
            CellDiff::Unmatched {
                label: gone.label(),
                missing_from: "current"
            }
        );
        // And the other way round: a cell the baseline never had.
        let out = compare(&cur, &base);
        assert_eq!(
            out.diffs,
            vec![CellDiff::Unmatched {
                label: gone.label(),
                missing_from: "baseline"
            }]
        );
        assert!(out.diffs[0].to_string().contains("missing from baseline"));
    }

    #[test]
    fn identical_recovery_rerun_passes() {
        let out = compare(&recovery_report(), &recovery_report());
        assert!(out.pass(), "{:#?}", out.diffs);
        assert_eq!(out.compared, 1);
    }

    #[test]
    fn recovery_slowdown_fails() {
        let base = recovery_report();
        let mut cur = base.clone();
        cur.recovery[0].recovery_latency_us *= 1.20;
        let out = compare(&base, &cur);
        assert_changed(&out, &base.recovery[0].label(), &["recovery_latency_us"]);
    }

    #[test]
    fn recovery_survivor_drift_fails() {
        let base = recovery_report();
        let mut cur = base.clone();
        cur.recovery[0].survivors -= 1;
        let out = compare(&base, &cur);
        assert_changed(&out, &base.recovery[0].label(), &["survivors"]);
    }

    #[test]
    fn missing_recovery_entry_fails() {
        let base = recovery_report();
        let mut cur = base.clone();
        cur.recovery.clear();
        assert_eq!(
            compare(&base, &cur).diffs,
            vec![CellDiff::Unmatched {
                label: base.recovery[0].label(),
                missing_from: "current"
            }]
        );
    }

    #[test]
    fn identical_session_rerun_passes() {
        let out = compare(&session_report(), &session_report());
        assert!(out.pass(), "{:#?}", out.diffs);
        assert_eq!(out.compared, 1);
    }

    #[test]
    fn session_p99_change_fails() {
        let base = session_report();
        let mut cur = base.clone();
        // Mean holds, p99 moves: the tail alone fails the cell.
        cur.sessions[0].latency.p99 *= 1.01;
        let out = compare(&base, &cur);
        assert_changed(&out, &base.sessions[0].label(), &["latency.p99"]);
    }

    #[test]
    fn session_throughput_drop_fails() {
        let base = session_report();
        let mut cur = base.clone();
        cur.sessions[0].throughput_mb_per_s *= 0.80;
        let out = compare(&base, &cur);
        assert_changed(&out, &base.sessions[0].label(), &["throughput_mb_per_s"]);
    }

    #[test]
    fn missing_session_entry_fails() {
        let base = session_report();
        let mut cur = base.clone();
        cur.sessions.clear();
        assert_eq!(
            compare(&base, &cur).diffs,
            vec![CellDiff::Unmatched {
                label: base.sessions[0].label(),
                missing_from: "current"
            }]
        );
    }
}
