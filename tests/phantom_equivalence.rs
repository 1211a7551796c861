//! Phantom-mode equivalence: `Data::Phantom` is a length-only stand-in for
//! the real rope-backed payloads, so a phantom run must agree with a real
//! run on every observable length — output block lengths at every rank and
//! the multiset of wire-frame lengths on every inter-node link. This is
//! what makes p=1024 phantom simulations trustworthy proxies for the
//! byte-carrying runs.

use std::collections::BTreeMap;

use eag_core::{Algorithm, BcastAlgo, Collective};
use eag_netsim::{profile, Mapping, Topology};
use eag_runtime::{run, DataMode, WorldSpec};

const SEED: u64 = 0xFA57;

/// Observable shape of one run: per-rank output block lengths, plus the
/// sorted frame lengths seen on each (src, dst) inter-node link.
#[derive(Debug, PartialEq, Eq)]
struct Shape {
    block_lens: Vec<Vec<usize>>,
    link_frames: BTreeMap<(usize, usize), Vec<usize>>,
}

fn shape(algo: Algorithm, p: usize, nodes: usize, m: usize, mode: DataMode) -> Shape {
    let mut spec = WorldSpec::new(
        Topology::new(p, nodes, Mapping::Block),
        profile::free(),
        mode,
    );
    spec.capture_wire = true;
    let report = run(&spec, move |ctx| {
        Collective::Allgather(algo)
            .run(ctx, m)
            .into_blocks()
            .iter()
            .map(|b| b.data.len())
            .collect::<Vec<usize>>()
    });
    let mut link_frames: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for f in report.wiretap.frames() {
        link_frames.entry((f.src, f.dst)).or_default().push(f.len);
    }
    for lens in link_frames.values_mut() {
        lens.sort_unstable();
    }
    Shape {
        block_lens: report.outputs,
        link_frames,
    }
}

/// Every algorithm × (p, N) × message size: phantom lengths match the
/// real-mode rope lengths, block by block and frame by frame.
#[test]
fn phantom_lengths_match_real_rope_lengths() {
    for &algo in Algorithm::all() {
        for (p, nodes) in [(8usize, 2usize), (16, 4), (12, 3)] {
            for m in [1usize, 64, 1000] {
                let phantom = shape(algo, p, nodes, m, DataMode::Phantom);
                let real = shape(algo, p, nodes, m, DataMode::Real { seed: SEED });
                assert_eq!(
                    phantom, real,
                    "{algo} p={p} N={nodes} m={m}: phantom run diverged from real run"
                );
            }
        }
    }
}

/// The scheduler's headline payoff: a byte-carrying real-mode world at
/// p=256 on one machine, checked against its phantom twin. Log-round
/// algorithms keep the round count at ⌈lg 256⌉ = 8 so the cell stays cheap
/// under default `cargo test` settings.
#[test]
fn phantom_equivalence_real_mode_p256() {
    for algo in [Algorithm::OBruck, Algorithm::ORd] {
        let phantom = shape(algo, 256, 8, 64, DataMode::Phantom);
        let real = shape(algo, 256, 8, 64, DataMode::Real { seed: SEED });
        assert_eq!(
            phantom, real,
            "{algo} p=256 N=8 m=64: phantom run diverged from real run"
        );
    }
}

/// Observable shape of one collective run; sparse outputs (gather roots,
/// scatter own-slots) contribute only the slots their role delivers.
fn shape_collective(c: Collective, p: usize, nodes: usize, m: usize, mode: DataMode) -> Shape {
    let mut spec = WorldSpec::new(
        Topology::new(p, nodes, Mapping::Block),
        profile::free(),
        mode,
    );
    spec.capture_wire = true;
    let report = run(&spec, move |ctx| {
        let out = c.run(ctx, m);
        (0..out.p())
            .filter_map(|r| out.get(r).map(|b| b.data.len()))
            .collect::<Vec<usize>>()
    });
    let mut link_frames: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for f in report.wiretap.frames() {
        link_frames.entry((f.src, f.dst)).or_default().push(f.len);
    }
    for lens in link_frames.values_mut() {
        lens.sort_unstable();
    }
    Shape {
        block_lens: report.outputs,
        link_frames,
    }
}

/// Every new collective (broadcast, gather/scatter, the irregular
/// variants, all-to-all) × (p, N) × message size: phantom lengths match
/// the real-mode rope lengths, block by block and frame by frame. The
/// sealed length-exchange prologue of the irregular operations carries
/// real metadata bytes in both modes, so its frames must agree too.
#[test]
fn phantom_lengths_match_real_for_new_collectives() {
    for c in Collective::new_operations_all() {
        for (p, nodes) in [(8usize, 2usize), (16, 4), (12, 3)] {
            for m in [1usize, 64, 1000] {
                let phantom = shape_collective(c, p, nodes, m, DataMode::Phantom);
                let real = shape_collective(c, p, nodes, m, DataMode::Real { seed: SEED });
                assert_eq!(
                    phantom, real,
                    "{c} p={p} N={nodes} m={m}: phantom run diverged from real run"
                );
            }
        }
    }
}

/// Real-mode p=256 for a new collective: the binomial broadcast finishes
/// in ⌈lg 256⌉ = 8 rounds, so the byte-carrying cell stays cheap.
#[test]
fn phantom_equivalence_real_mode_p256_broadcast() {
    let c = Collective::Broadcast(BcastAlgo::Binomial);
    let phantom = shape_collective(c, 256, 8, 64, DataMode::Phantom);
    let real = shape_collective(c, 256, 8, 64, DataMode::Real { seed: SEED });
    assert_eq!(
        phantom, real,
        "{c} p=256 N=8 m=64: phantom run diverged from real run"
    );
}

/// The equivalence holds for the cyclic mapping too (different ranks are
/// node-local, so the plain/sealed split of the traffic changes).
#[test]
fn phantom_equivalence_cyclic_mapping() {
    for &algo in Algorithm::all() {
        let spec =
            |mode| WorldSpec::new(Topology::new(12, 4, Mapping::Cyclic), profile::free(), mode);
        let lens = |mode| {
            run(&spec(mode), |ctx| {
                Collective::Allgather(algo)
                    .run(ctx, 96)
                    .into_blocks()
                    .iter()
                    .map(|b| b.data.len())
                    .collect::<Vec<usize>>()
            })
            .outputs
        };
        assert_eq!(
            lens(DataMode::Phantom),
            lens(DataMode::Real { seed: SEED }),
            "{algo}: cyclic-mapping phantom lengths diverged"
        );
    }
}
