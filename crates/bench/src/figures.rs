//! Generators for the paper's Figures 1 and 5–8.

use crate::fmt::{parse_size, size_label};
use crate::harness::{simulate, SimConfig};
use eag_core::{Algorithm, Collective};
use eag_crypto::probe::probe_throughput_suite;
use eag_crypto::CipherSuite;
use eag_netsim::profile;

/// One latency series for a figure panel.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// (message size, latency µs) points.
    pub points: Vec<(usize, f64)>,
}

/// One panel (the paper splits each figure into small/medium/large).
#[derive(Debug, Clone)]
pub struct Panel {
    /// Panel caption, e.g. `"(a) Small messages"`.
    pub title: String,
    /// The series, one per algorithm.
    pub series: Vec<Series>,
}

/// Sweeps `algos` over `sizes` and builds one panel.
pub fn panel(cfg: &SimConfig, title: &str, algos: &[Algorithm], sizes: &[usize]) -> Panel {
    let series = algos
        .iter()
        .map(|&a| Series {
            label: a.name().to_string(),
            points: sizes
                .iter()
                .map(|&m| (m, simulate(cfg, Collective::Allgather(a), m).0))
                .collect(),
        })
        .collect();
    Panel {
        title: title.to_string(),
        series,
    }
}

fn sizes(labels: &[&str]) -> Vec<usize> {
    labels.iter().map(|l| parse_size(l).unwrap()).collect()
}

/// Figure 5/6 panels: unencrypted algorithms (the MVAPICH baseline and the
/// unencrypted counterparts of C-Ring, C-RD, HS1).
pub fn fig_unencrypted(cfg: &SimConfig) -> Vec<Panel> {
    use Algorithm::*;
    vec![
        panel(
            cfg,
            "(a) Small messages",
            &[Mvapich, CRdPlain, HsPlain],
            &sizes(&["1B", "128B", "512B", "1KB", "2KB"]),
        ),
        panel(
            cfg,
            "(b) Medium messages",
            &[Mvapich, CRingPlain, CRdPlain, HsPlain],
            &sizes(&["8KB", "16KB", "32KB", "64KB"]),
        ),
        panel(
            cfg,
            "(c) Large messages",
            &[Mvapich, CRingPlain, CRdPlain, HsPlain],
            &sizes(&["512KB", "1MB", "2MB"]),
        ),
    ]
}

/// Figure 7/8 panels: encrypted algorithms by size band, as in the paper.
pub fn fig_encrypted(cfg: &SimConfig) -> Vec<Panel> {
    use Algorithm::*;
    vec![
        panel(
            cfg,
            "(a) Small messages",
            &[ORd, ORd2, CRd, Hs1],
            &sizes(&["1B", "2B", "4B", "64B", "128B", "512B"]),
        ),
        panel(
            cfg,
            "(b) Medium messages",
            &[CRing, CRd, Hs1, Hs2],
            &sizes(&["1KB", "2KB", "4KB", "8KB", "16KB", "32KB"]),
        ),
        panel(
            cfg,
            "(c) Large messages",
            &[ORing, CRing, CRd, Hs1, Hs2],
            &sizes(&["128KB", "512KB", "1MB"]),
        ),
    ]
}

/// Renders panels as Markdown tables (size × algorithm latency in µs).
pub fn render_panels(title: &str, panels: &[Panel]) -> String {
    let mut out = format!("### {title}\n\n");
    for p in panels {
        out.push_str(&format!("**{}**\n\n", p.title));
        out.push_str("| Size |");
        for s in &p.series {
            out.push_str(&format!(" {} |", s.label));
        }
        out.push('\n');
        out.push_str("|---|");
        for _ in &p.series {
            out.push_str("---|");
        }
        out.push('\n');
        let sizes: Vec<usize> = p.series[0].points.iter().map(|&(m, _)| m).collect();
        for (i, &m) in sizes.iter().enumerate() {
            out.push_str(&format!("| {} |", size_label(m)));
            for s in &p.series {
                out.push_str(&format!(" {:.2} |", s.points[i].1));
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// One point of Figure 1: throughput in MB/s at a message size.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputPoint {
    /// Message size in bytes.
    pub size: usize,
    /// Modeled ping-pong throughput (MB/s).
    pub pingpong_model: f64,
    /// Modeled encryption throughput (MB/s).
    pub encryption_model: f64,
    /// Measured AES-128-GCM seal throughput on this machine (MB/s).
    pub encryption_real: f64,
}

/// Figure 1: encryption vs ping-pong throughput.
///
/// The model curves reproduce the paper's Noleland anchors; the real curve
/// is this machine's AES-128-GCM seal throughput from the crypto probe (the
/// timer `eag calibrate` fits its constants from).
pub fn fig1_points() -> Vec<ThroughputPoint> {
    let model = profile::noleland().model;
    let sizes: Vec<usize> = [
        "1B", "256B", "1KB", "4KB", "16KB", "32KB", "64KB", "128KB", "512KB", "2MB",
    ]
    .iter()
    .map(|l| parse_size(l).unwrap())
    .collect();
    let real = probe_throughput_suite(CipherSuite::AesGcm128, &sizes, 0.02);
    sizes
        .iter()
        .zip(real)
        .map(|(&m, real)| ThroughputPoint {
            size: m,
            // Ping-pong: one round trip moves 2m bytes in 2(α+βm).
            pingpong_model: m as f64 / model.inter.time(m),
            encryption_model: m as f64 / model.crypto.enc_time(m),
            encryption_real: real.seal_mb_per_s,
        })
        .collect()
}

/// Renders Figure 1 as a Markdown table.
pub fn render_fig1(points: &[ThroughputPoint]) -> String {
    let mut out = String::from(
        "### Figure 1 — encryption vs ping-pong throughput (MB/s)\n\n\
         | Size | ping-pong (model) | encryption (model) | encryption (this machine) |\n\
         |---|---|---|---|\n",
    );
    for p in points {
        out.push_str(&format!(
            "| {} | {:.0} | {:.0} | {:.0} |\n",
            size_label(p.size),
            p.pingpong_model,
            p.encryption_model,
            p.encryption_real
        ));
    }
    out
}

/// Renders one panel as an ASCII log-log-ish line chart (size on x, latency
/// on y, one glyph per series) — the terminal version of the paper's plots.
pub fn render_ascii_chart(panel: &Panel, width: usize, height: usize) -> String {
    const GLYPHS: [char; 8] = ['o', 'x', '+', '*', '#', '@', '%', '&'];
    let mut grid = vec![vec![' '; width]; height];

    let all_points: Vec<(usize, f64)> = panel
        .series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    if all_points.is_empty() {
        return String::from("(empty panel)\n");
    }
    let (x_min, x_max) = all_points
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &(m, _)| {
            (lo.min(m as f64), hi.max(m as f64))
        });
    let (y_min, y_max) = all_points
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &(_, l)| {
            (lo.min(l.max(1e-9)), hi.max(l))
        });
    // Log scales (latency and size both span decades).
    let x_span = (x_max.ln() - x_min.ln()).max(1e-9);
    let y_span = (y_max.ln() - y_min.ln()).max(1e-9);
    let x_cell = |m: usize| {
        ((((m as f64).ln() - x_min.ln()) / x_span) * (width - 1) as f64).round() as usize
    };
    let y_cell = |l: f64| {
        let frac = (l.max(1e-9).ln() - y_min.ln()) / y_span;
        height - 1 - (frac * (height - 1) as f64).round() as usize
    };

    for (si, series) in panel.series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        // Mark the points, connecting consecutive sizes with interpolation.
        for pair in series.points.windows(2) {
            let (x0, y0) = (x_cell(pair[0].0), y_cell(pair[0].1));
            let (x1, y1) = (x_cell(pair[1].0), y_cell(pair[1].1));
            let steps = x1.saturating_sub(x0).max(1);
            for s in 0..=steps {
                let x = x0 + s;
                let y = (y0 as f64 + (y1 as f64 - y0 as f64) * s as f64 / steps as f64).round()
                    as usize;
                grid[y.min(height - 1)][x.min(width - 1)] = glyph;
            }
        }
        if let Some(&(m, l)) = series.points.first() {
            grid[y_cell(l)][x_cell(m)] = glyph;
        }
    }

    let mut out = format!("{}\n", panel.title);
    out.push_str(&format!(
        "latency {:.1}µs (top) .. {:.1}µs (bottom), log-log\n",
        y_max, y_min
    ));
    for row in grid {
        out.push_str("  |");
        out.extend(row);
        out.push('\n');
    }
    out.push_str("  +");
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "   {} .. {}\n",
        size_label(all_points.iter().map(|&(m, _)| m).min().unwrap()),
        size_label(all_points.iter().map(|&(m, _)| m).max().unwrap())
    ));
    for (si, s) in panel.series.iter().enumerate() {
        out.push_str(&format!("   {} {}\n", GLYPHS[si % GLYPHS.len()], s.label));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eag_netsim::Mapping;

    fn tiny() -> SimConfig {
        SimConfig::contended(8, 4, Mapping::Block, "noleland")
    }

    #[test]
    fn panel_has_all_series_and_points() {
        let p = panel(
            &tiny(),
            "(a)",
            &[Algorithm::Hs1, Algorithm::Hs2],
            &[64, 1024],
        );
        assert_eq!(p.series.len(), 2);
        assert_eq!(p.series[0].points.len(), 2);
        assert!(p
            .series
            .iter()
            .all(|s| s.points.iter().all(|&(_, l)| l > 0.0)));
    }

    #[test]
    fn model_throughput_anchors() {
        let pts = fig1_points();
        let big = pts.iter().find(|p| p.size == 2 * 1024 * 1024).unwrap();
        // Paper's Figure 1: ping-pong ≈ 11 GB/s, encryption ≈ 5.5 GB/s.
        assert!(big.pingpong_model > 10_000.0);
        assert!(big.encryption_model > 5_000.0 && big.encryption_model < 5_600.0);
        assert!(big.encryption_real > 0.0);
    }

    #[test]
    fn ascii_chart_renders_all_series() {
        let p = Panel {
            title: "(test)".into(),
            series: vec![
                Series {
                    label: "A".into(),
                    points: vec![(1, 10.0), (1024, 100.0), (1 << 20, 1000.0)],
                },
                Series {
                    label: "B".into(),
                    points: vec![(1, 20.0), (1024, 50.0), (1 << 20, 5000.0)],
                },
            ],
        };
        let chart = render_ascii_chart(&p, 60, 12);
        assert!(chart.contains("o A"));
        assert!(chart.contains("x B"));
        assert!(chart.contains("1B .. 1MB"));
        assert!(chart.contains('o') && chart.contains('x'));
    }

    #[test]
    fn ascii_chart_empty_panel() {
        let p = Panel {
            title: "(e)".into(),
            series: vec![],
        };
        assert_eq!(render_ascii_chart(&p, 10, 5), "(empty panel)\n");
    }

    #[test]
    fn render_contains_all_sizes() {
        let md = render_panels(
            "f",
            &[panel(&tiny(), "(a)", &[Algorithm::Hs2], &[64, 2048])],
        );
        assert!(md.contains("64B"));
        assert!(md.contains("2KB"));
    }
}
