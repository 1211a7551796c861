//! Generators for the paper's Tables I–VI.

use crate::fmt::{latency_label, size_label};
use crate::harness::{simulate, SimConfig};
use crate::stats::overhead_pct;
use eag_core::{Algorithm, Collective, MetricSet, Operation};
use eag_netsim::Mapping;

/// The candidate set for "best scheme": the paper's seven new algorithms
/// (Naive is the baseline being beaten, so it is excluded).
pub fn candidate_schemes() -> &'static [Algorithm] {
    use Algorithm::*;
    &[ORing, ORd, ORd2, CRing, CRd, Hs1, Hs2]
}

/// One row of a Table III/IV/V/VI-style comparison.
#[derive(Debug, Clone)]
pub struct BestSchemeRow {
    /// Message size in bytes.
    pub size: usize,
    /// Latency of the unencrypted MPI baseline, µs.
    pub mpi_latency_us: f64,
    /// Overhead of the Naive encrypted algorithm vs the baseline, %.
    pub naive_overhead_pct: f64,
    /// Overhead of the best new scheme vs the baseline, %.
    pub best_overhead_pct: f64,
    /// The winning scheme.
    pub best: Algorithm,
}

/// Computes a full best-scheme table for `sizes` under `cfg`.
pub fn best_scheme_table(cfg: &SimConfig, sizes: &[usize]) -> Vec<BestSchemeRow> {
    sizes
        .iter()
        .map(|&m| {
            let latency = |a| simulate(cfg, Collective::Allgather(a), m).0;
            let mpi = latency(Algorithm::Mvapich);
            let (best, best_us) = candidate_schemes()
                .iter()
                .map(|&a| (a, latency(a)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty candidate set");
            BestSchemeRow {
                size: m,
                mpi_latency_us: mpi,
                naive_overhead_pct: overhead_pct(latency(Algorithm::Naive), mpi),
                best_overhead_pct: overhead_pct(best_us, mpi),
                best,
            }
        })
        .collect()
}

/// Renders a best-scheme table as Markdown (columns as in the paper).
pub fn render_best_scheme_table(title: &str, rows: &[BestSchemeRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("### {title}\n\n"));
    out.push_str(
        "| Size | Latency of MPI | Overhead of Naive | Overhead of best scheme | Best scheme |\n",
    );
    out.push_str("|---|---|---|---|---|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {:+.2}% | {:+.2}% | {} |\n",
            size_label(r.size),
            latency_label(r.mpi_latency_us),
            r.naive_overhead_pct,
            r.best_overhead_pct,
            r.best
        ));
    }
    out
}

/// Renders a best-scheme table as CSV (plot-friendly).
pub fn render_best_scheme_csv(rows: &[BestSchemeRow]) -> String {
    let mut out =
        String::from("size_bytes,mpi_latency_us,naive_overhead_pct,best_overhead_pct,best\n");
    for r in rows {
        out.push_str(&format!(
            "{},{:.3},{:.3},{:.3},{}\n",
            r.size, r.mpi_latency_us, r.naive_overhead_pct, r.best_overhead_pct, r.best
        ));
    }
    out
}

/// Renders Table I (the lower bounds) for a given configuration (`p` a
/// positive multiple of `nodes`).
pub fn render_table1(p: usize, nodes: usize, m: usize) -> String {
    let b = Operation::Allgather
        .lower_bounds(p, nodes, m)
        .unwrap_or_else(|e| panic!("Table I: {e}"));
    let ell = p / nodes;
    let mut out = String::new();
    out.push_str(&format!(
        "### Table I — lower bounds (p = {p}, N = {nodes}, ℓ = {ell}, m = {})\n\n",
        size_label(m)
    ));
    out.push_str("| Metric | rc | sc | re | se | rd | sd |\n|---|---|---|---|---|---|---|\n");
    out.push_str(&format!(
        "| Bound | {} | {} | {} | {} | {} | {} |\n",
        b.rc, b.sc, b.re, b.se, b.rd, b.sd
    ));
    out
}

/// One row of the Table II comparison: predicted vs measured metrics.
#[derive(Debug, Clone)]
pub struct MetricsRow {
    /// Algorithm.
    pub algo: Algorithm,
    /// The paper's closed-form prediction.
    pub predicted: MetricSet,
    /// Metrics measured by the runtime (critical-path maxima).
    pub measured: MetricSet,
}

/// Measures every encrypted algorithm and compares with Table II.
/// Requires powers of two and block mapping (the table's assumptions).
pub fn table2_rows(p: usize, nodes: usize, m: usize) -> Vec<MetricsRow> {
    let cfg = SimConfig::deterministic(p, nodes, Mapping::Block, "unit");
    Algorithm::encrypted_all()
        .iter()
        .filter_map(|&algo| {
            // Algorithms without a Table II closed form (the O-Bruck
            // extension) are skipped.
            let c = Collective::Allgather(algo);
            let predicted = c.predict(p, nodes, m)?;
            let (_, mx) = simulate(&cfg, c, m);
            let measured = MetricSet {
                rc: mx.comm_rounds,
                sc: mx.sc_payload(),
                re: mx.enc_rounds,
                se: mx.enc_bytes,
                rd: mx.dec_rounds,
                sd: mx.dec_bytes,
            };
            Some(MetricsRow {
                algo,
                predicted,
                measured,
            })
        })
        .collect()
}

/// Renders the Table II comparison as Markdown.
pub fn render_table2(p: usize, nodes: usize, m: usize, rows: &[MetricsRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "### Table II — metrics, predicted (paper) vs measured (runtime), p = {p}, N = {nodes}, m = {}\n\n",
        size_label(m)
    ));
    out.push_str("| Algorithm | rc | sc | re | se | rd | sd |\n|---|---|---|---|---|---|---|\n");
    for r in rows {
        let p = &r.predicted;
        let g = &r.measured;
        let cell = |pred: u64, got: u64| {
            if pred == got {
                format!("{got} ✓")
            } else {
                format!("{got} (paper {pred})")
            }
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} |\n",
            r.algo,
            cell(p.rc, g.rc),
            cell(p.sc, g.sc),
            cell(p.re, g.re),
            cell(p.se, g.se),
            cell(p.rd, g.rd),
            cell(p.sd, g.sd),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SimConfig {
        SimConfig::contended(16, 4, Mapping::Block, "noleland")
    }

    #[test]
    fn best_scheme_rows_have_sane_fields() {
        let rows = best_scheme_table(&tiny(), &[64, 64 * 1024]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.mpi_latency_us > 0.0);
            assert!(r.best_overhead_pct <= r.naive_overhead_pct);
        }
    }

    #[test]
    fn table2_metrics_match_predictions_exactly() {
        for row in table2_rows(16, 4, 32) {
            assert_eq!(row.predicted, row.measured, "{}", row.algo);
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let rows = best_scheme_table(&tiny(), &[64]);
        let csv = render_best_scheme_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("size_bytes,"));
        assert!(lines[1].starts_with("64,"));
    }

    #[test]
    fn render_produces_markdown() {
        let rows = best_scheme_table(&tiny(), &[64]);
        let md = render_best_scheme_table("t", &rows);
        assert!(md.contains("| Size |"));
        assert!(md.contains("64B"));
        let t1 = render_table1(128, 8, 1024);
        assert!(t1.contains("Bound"));
    }
}
