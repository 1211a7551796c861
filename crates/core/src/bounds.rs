//! Theoretical bounds and predictions (paper Tables I and II), generalized
//! per collective operation.

use crate::algorithm::Algorithm;
use crate::collective::ceil_log2;
use crate::encrypted::bcast_segments;
use crate::operation::{AlltoallAlgo, BcastAlgo, Collective, Operation, RootedAlgo};
use crate::unencrypted::MVAPICH_SWITCH_BYTES;
use std::fmt;

/// The six metrics of Section IV-A, as closed-form values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSet {
    /// Communication rounds in the critical path.
    pub rc: u64,
    /// Bytes sent/received in the critical path.
    pub sc: u64,
    /// Encryption rounds.
    pub re: u64,
    /// Bytes encrypted.
    pub se: u64,
    /// Decryption rounds.
    pub rd: u64,
    /// Bytes decrypted.
    pub sd: u64,
}

/// Why a bounds query cannot be answered for a given world shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundsError {
    /// `p == 0` or `nodes == 0`: no such world.
    EmptyWorld,
    /// `p` is not a multiple of `nodes`, so ℓ = p/N is undefined.
    IndivisibleShape {
        /// The offending process count.
        p: usize,
        /// The offending node count.
        nodes: usize,
    },
}

impl fmt::Display for BoundsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundsError::EmptyWorld => write!(f, "bounds need p >= 1 and nodes >= 1"),
            BoundsError::IndivisibleShape { p, nodes } => {
                write!(f, "p = {p} is not a multiple of nodes = {nodes}")
            }
        }
    }
}

impl std::error::Error for BoundsError {}

impl Operation {
    /// Per-operation Table-I-style lower bounds for `m`-byte blocks on `p`
    /// processes over `nodes` nodes (ℓ = p/nodes, N = nodes). A world
    /// with no defined ℓ is a typed [`BoundsError`], never a panic; a
    /// single-node world gets degenerate bounds (communication terms
    /// unchanged, crypto terms zero — nothing crosses a node boundary), so
    /// bench sweeps and `recommend` can probe arbitrary configurations.
    ///
    /// The communication terms follow the classic collective arguments; the
    /// crypto terms use the paper's channel model (every byte crossing a
    /// node boundary is sealed exactly where it exits and opened where it
    /// is consumed):
    ///
    /// - **all-gather** (the paper's Table I): `rd >= ⌈lg N / lg(ℓ+1)⌉` —
    ///   each decryption round can at most multiply the number of nodes
    ///   with known data by (ℓ+1) — and `sd >= (N−1)m`.
    /// - **broadcast**: every non-root must receive the root's m bytes
    ///   (`sc >= m`); the block crosses at least one node boundary, so some
    ///   rank seals >= m and some rank opens >= m.
    /// - **gather**: the root receives (p−1) blocks (`sc >= (p-1)m`) and
    ///   must end with the p−ℓ remote blocks in plaintext
    ///   (`sd >= (p-ℓ)m`); at least one full block is sealed somewhere.
    /// - **scatter**: the root is the sole data holder, so every
    ///   remote-bound byte is sealed by it (`se >= (p-ℓ)m`); each remote
    ///   rank opens its own m bytes.
    /// - **all-to-all**: data from p distinct sources must reach every
    ///   rank, and each receive at most doubles the known-source count
    ///   (`rc >= ⌈lg p⌉`); p·(p−ℓ) pair-blocks cross node boundaries, so by
    ///   averaging some rank seals >= (p−ℓ)m and some rank opens >= (p−ℓ)m.
    ///
    /// The irregular (v) operations share their base operation's bounds
    /// with `m` read as the uniform per-rank block size.
    pub fn lower_bounds(&self, p: usize, nodes: usize, m: usize) -> Result<MetricSet, BoundsError> {
        if p == 0 || nodes == 0 {
            return Err(BoundsError::EmptyWorld);
        }
        if !p.is_multiple_of(nodes) {
            return Err(BoundsError::IndivisibleShape { p, nodes });
        }
        let ell = p / nodes;
        let mb = m as u64;
        let remote = ((p - ell) * m) as u64;
        // Crypto terms vanish on a single node: nothing crosses a boundary.
        let one = u64::from(nodes >= 2);
        Ok(match self {
            Operation::Allgather | Operation::Allgatherv => MetricSet {
                rc: ceil_log2(p) as u64,
                sc: ((p - 1) * m) as u64,
                re: one,
                se: one * mb,
                rd: ((nodes as f64).log2() / ((ell + 1) as f64).log2()).ceil() as u64,
                sd: ((nodes - 1) * m) as u64,
            },
            Operation::Broadcast => MetricSet {
                rc: u64::from(p > 1),
                sc: if p > 1 { mb } else { 0 },
                re: one,
                se: one * mb,
                rd: one,
                sd: one * mb,
            },
            Operation::Gather | Operation::Gatherv => MetricSet {
                rc: u64::from(p > 1),
                sc: ((p - 1) * m) as u64,
                re: one,
                se: one * mb,
                rd: one,
                sd: remote,
            },
            Operation::Scatter | Operation::Scatterv => MetricSet {
                rc: u64::from(p > 1),
                sc: ((p - 1) * m) as u64,
                re: one,
                se: remote,
                rd: one,
                sd: one * mb,
            },
            Operation::Alltoall => MetricSet {
                rc: ceil_log2(p) as u64,
                sc: ((p - 1) * m) as u64,
                re: one,
                se: remote,
                rd: one,
                sd: remote,
            },
        })
    }
}

impl Collective {
    /// The closed-form metric prediction for this collective, assuming `p`
    /// and `nodes` are powers of two (N ≥ 2), block-order mapping and
    /// uniform blocks: the paper's Table II for the encrypted all-gathers,
    /// Table-I-style forms for the other operations. `None` where no closed
    /// form is registered — the unencrypted baselines and O-Bruck, the
    /// `v`-operations (the length prologue pollutes the per-rank maxima)
    /// and the Bruck all-to-all (shape-dependent forwarding maxima).
    ///
    /// Two deliberate deviations from the printed Table II, both documented
    /// in DESIGN.md:
    /// - O-RD's decryption rounds: the table prints `p−ℓ`, but the paper's
    ///   own Section IV-B derivation ("each process only decrypts the
    ///   encrypted copy of data of every other node, and thus rd = N−1")
    ///   matches the merged-ciphertext implementation that also gives the
    ///   table's `re = 1`; we implement and predict `rd = N−1`.
    /// - HS1's `rd`: the table's `⌈N/ℓ⌉` simplification assumes N, ℓ powers
    ///   of two; the exact count is `⌈(N−1)/ℓ⌉`, which we predict (they
    ///   agree for the power-of-two inputs this function requires, except
    ///   when ℓ ∤ N−1 — e.g. N = ℓ where both give 1).
    ///
    /// Naive rides the modeled MVAPICH default, so its round count follows
    /// that selection: `lg p` (RD) below [`MVAPICH_SWITCH_BYTES`], `p − 1`
    /// (Ring) at or above it.
    pub fn predict(&self, p: usize, nodes: usize, m: usize) -> Option<MetricSet> {
        if !p.is_power_of_two() || !nodes.is_power_of_two() || !p.is_multiple_of(nodes) || nodes < 2
        {
            return None;
        }
        let ell = (p / nodes) as u64;
        let n = nodes as u64;
        let pq = p as u64;
        let mb = m as u64;
        let lg = |x: u64| x.trailing_zeros() as u64;
        let remote = (pq - ell) * mb;

        use Algorithm::*;
        Some(match self {
            Collective::Allgather(Naive) => MetricSet {
                rc: if m < MVAPICH_SWITCH_BYTES {
                    lg(pq)
                } else {
                    pq - 1
                },
                sc: (pq - 1) * mb,
                re: 1,
                se: mb,
                rd: pq - 1,
                sd: (pq - 1) * mb,
            },
            Collective::Allgather(ORing) => MetricSet {
                rc: pq - 1,
                sc: (pq - 1) * mb,
                re: pq - 1,
                se: (pq - 1) * mb,
                rd: pq - 1,
                sd: (pq - 1) * mb,
            },
            Collective::Allgather(ORd) => MetricSet {
                rc: lg(pq),
                sc: (pq - 1) * mb,
                re: 1,
                se: ell * mb,
                rd: n - 1,
                sd: remote,
            },
            Collective::Allgather(ORd2) => MetricSet {
                rc: lg(pq),
                sc: (pq - 1) * mb,
                re: lg(n),
                se: remote,
                rd: lg(n),
                sd: remote,
            },
            Collective::Allgather(CRing) => MetricSet {
                rc: n + ell - 2,
                sc: (pq - 1) * mb,
                re: 1,
                se: mb,
                rd: n - 1,
                sd: (n - 1) * mb,
            },
            Collective::Allgather(CRd) => MetricSet {
                rc: lg(pq),
                sc: (pq - 1) * mb,
                re: 1,
                se: mb,
                rd: n - 1,
                sd: (n - 1) * mb,
            },
            Collective::Allgather(Hs1) => MetricSet {
                rc: lg(n),
                sc: remote,
                re: 1,
                se: ell * mb,
                rd: (n - 1).div_ceil(ell),
                sd: (n - 1).div_ceil(ell) * ell * mb,
            },
            Collective::Allgather(Hs2) => MetricSet {
                rc: lg(n),
                sc: remote,
                re: 1,
                se: mb,
                rd: n - 1,
                sd: (n - 1) * mb,
            },
            Collective::Broadcast(BcastAlgo::Binomial) => MetricSet {
                rc: 1,
                sc: lg(pq) * mb,
                re: 1,
                se: mb,
                rd: 1,
                sd: mb,
            },
            Collective::Broadcast(BcastAlgo::Pipelined) => {
                let s = bcast_segments(m) as u64;
                MetricSet {
                    rc: s,
                    sc: mb,
                    re: s,
                    se: mb,
                    rd: s,
                    sd: mb,
                }
            }
            Collective::Gather(RootedAlgo::Linear) => MetricSet {
                rc: pq - 1,
                sc: (pq - 1) * mb,
                re: 1,
                se: mb,
                rd: pq - ell,
                sd: remote,
            },
            Collective::Gather(RootedAlgo::Binomial) => MetricSet {
                rc: lg(pq),
                sc: (pq - 1) * mb,
                re: ell,
                se: ell * mb,
                rd: pq - ell,
                sd: remote,
            },
            Collective::Scatter(_) => MetricSet {
                rc: 1,
                sc: (pq - 1) * mb,
                re: pq - ell,
                se: remote,
                rd: 1,
                sd: mb,
            },
            Collective::Alltoall(AlltoallAlgo::Pairwise) => MetricSet {
                rc: pq - 1,
                sc: (pq - 1) * mb,
                re: pq - ell,
                se: remote,
                rd: pq - ell,
                sd: remote,
            },
            _ => return None,
        })
    }
}

/// Analytic latency estimate for an encrypted algorithm:
/// `tc + te + td = (rc·α + sc·β) + (re·αe + se·βe) + (rd·αd + sd·βd)`,
/// the paper's Section IV-A upper-bound composition, priced with the
/// inter-node link (communication is dominated by the network).
///
/// Requires powers of two (it builds on [`Collective::predict`]). This is a *model*
/// estimate — coarser than the virtual-time simulator (no overlap, no NIC
/// contention, no shared-memory costs) — but cheap enough to drive online
/// algorithm selection.
pub fn predict_latency_us(
    algo: Algorithm,
    p: usize,
    nodes: usize,
    m: usize,
    model: &eag_netsim::CostModel,
) -> Option<f64> {
    let ms = Collective::Allgather(algo).predict(p, nodes, m)?;
    let tc = ms.rc as f64 * model.inter.alpha_us + ms.sc as f64 / model.inter.bandwidth;
    let te = ms.re as f64 * model.crypto.enc_alpha_us + ms.se as f64 / model.crypto.enc_bandwidth;
    let td = ms.rd as f64 * model.crypto.dec_alpha_us + ms.sd as f64 / model.crypto.dec_bandwidth;
    Some(tc + te + td)
}

/// Picks the encrypted algorithm the cost model predicts to be fastest for
/// this configuration — the "best scheme" column of the paper's Tables
/// III–VI, decided analytically instead of by measurement. Falls back to
/// HS2 (the best large-message all-rounder) when `p`/`nodes` are not powers
/// of two and the closed forms do not apply.
pub fn recommend(p: usize, nodes: usize, m: usize, model: &eag_netsim::CostModel) -> Algorithm {
    Algorithm::encrypted_all()
        .iter()
        .copied()
        .filter(|&a| a != Algorithm::Naive)
        .filter_map(|a| predict_latency_us(a, p, nodes, m, model).map(|t| (a, t)))
        .min_by(|x, y| x.1.total_cmp(&y.1))
        .map(|(a, _)| a)
        .unwrap_or(Algorithm::Hs2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower_bounds(p: usize, nodes: usize, m: usize) -> MetricSet {
        Operation::Allgather.lower_bounds(p, nodes, m).unwrap()
    }

    fn predict(algo: Algorithm, p: usize, nodes: usize, m: usize) -> Option<MetricSet> {
        Collective::Allgather(algo).predict(p, nodes, m)
    }

    #[test]
    fn lower_bounds_match_table_1() {
        // p = 128, N = 8, ℓ = 16, m = 1024.
        let b = lower_bounds(128, 8, 1024);
        assert_eq!(b.rc, 7);
        assert_eq!(b.sc, 127 * 1024);
        assert_eq!(b.re, 1);
        assert_eq!(b.se, 1024);
        // ceil(lg 8 / lg 17) = ceil(3 / 4.09) = 1.
        assert_eq!(b.rd, 1);
        assert_eq!(b.sd, 7 * 1024);
    }

    #[test]
    fn rd_bound_grows_with_n_for_fixed_ell() {
        // ℓ = 1: rd >= lg N.
        let b = lower_bounds(16, 16, 8);
        assert_eq!(b.rd, 4);
        // ℓ >= N: one round suffices.
        let b = lower_bounds(64, 4, 8);
        assert_eq!(b.rd, 1);
    }

    #[test]
    fn predictions_meet_or_exceed_bounds() {
        for &(p, nodes) in &[(16usize, 4usize), (128, 8), (64, 16), (1024, 16)] {
            let m = 256;
            let lb = lower_bounds(p, nodes, m);
            for &algo in Algorithm::encrypted_all() {
                // O-Bruck is an extension with no Table II closed form.
                let Some(pr) = predict(algo, p, nodes, m) else {
                    continue;
                };
                assert!(
                    pr.rc >= lb.rc || matches!(algo, Algorithm::Hs1 | Algorithm::Hs2),
                    "{algo}: rc {} < bound {}",
                    pr.rc,
                    lb.rc
                );
                assert!(pr.re >= lb.re, "{algo}");
                assert!(pr.se >= lb.se, "{algo}");
                assert!(pr.rd >= lb.rd, "{algo}: rd {} < {}", pr.rd, lb.rd);
                assert!(pr.sd >= lb.sd, "{algo}");
            }
        }
    }

    #[test]
    fn concurrent_algorithms_meet_the_sd_bound() {
        let (p, nodes, m) = (128, 8, 1 << 20);
        let lb = lower_bounds(p, nodes, m);
        for algo in [Algorithm::CRing, Algorithm::CRd, Algorithm::Hs2] {
            assert_eq!(predict(algo, p, nodes, m).unwrap().sd, lb.sd, "{algo}");
        }
    }

    #[test]
    fn naive_is_ell_times_worse_on_sd() {
        let (p, nodes, m) = (128, 8, 1024);
        let naive = predict(Algorithm::Naive, p, nodes, m).unwrap();
        let cring = predict(Algorithm::CRing, p, nodes, m).unwrap();
        // (p−1)m vs (N−1)m: a factor ≈ ℓ.
        assert!(naive.sd / cring.sd >= (p / nodes - 2) as u64);
    }

    #[test]
    fn predict_requires_powers_of_two() {
        assert!(predict(Algorithm::CRing, 91, 7, 8).is_none());
        assert!(predict(Algorithm::CRing, 128, 8, 8).is_some());
        assert!(predict(Algorithm::Ring, 128, 8, 8).is_none());
    }

    #[test]
    fn recommend_matches_the_papers_size_bands() {
        let model = eag_netsim::profile::by_name("noleland").unwrap().model;
        // Small messages: a round-efficient scheme (the paper's Tables
        // III/VI small rows are won by O-RD, O-RD2, HS1).
        let small = recommend(128, 8, 4, &model);
        assert!(
            matches!(
                small,
                Algorithm::ORd | Algorithm::ORd2 | Algorithm::Hs1 | Algorithm::CRd
            ),
            "small-message pick: {small}"
        );
        // Large messages: a decryption-bound-meeting scheme (paper: HS2,
        // C-Ring, C-RD).
        let large = recommend(128, 8, 2 * 1024 * 1024, &model);
        assert!(
            matches!(
                large,
                Algorithm::Hs2 | Algorithm::CRing | Algorithm::CRd | Algorithm::Hs1
            ),
            "large-message pick: {large}"
        );
        // Naive is never recommended.
        for m in [1usize, 1024, 1 << 20] {
            assert_ne!(recommend(128, 8, m, &model), Algorithm::Naive);
        }
    }

    #[test]
    fn recommend_falls_back_for_general_shapes() {
        let model = eag_netsim::profile::by_name("noleland").unwrap().model;
        assert_eq!(recommend(91, 7, 1024, &model), Algorithm::Hs2);
    }

    #[test]
    fn predicted_latency_is_monotone_in_size() {
        let model = eag_netsim::profile::by_name("noleland").unwrap().model;
        for &algo in Algorithm::encrypted_all() {
            let Some(a) = predict_latency_us(algo, 128, 8, 64, &model) else {
                continue;
            };
            let b = predict_latency_us(algo, 128, 8, 64 * 1024, &model).unwrap();
            assert!(b > a, "{algo}");
        }
    }

    #[test]
    fn hs1_prediction_for_big_n_small_ell() {
        // N = 8, ℓ = 2: rd = ⌈7/2⌉ = 4, sd = 4·2m = 8m = max{N,ℓ}m.
        let pr = predict(Algorithm::Hs1, 16, 8, 10).unwrap();
        assert_eq!(pr.rd, 4);
        assert_eq!(pr.sd, 80);
    }
}
