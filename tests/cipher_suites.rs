//! Cross-suite equivalence: the AEAD backend protects the collective's
//! bytes, it must never change them. Running the same real-payload world
//! under every [`CipherSuite`] has to produce byte-identical gathered
//! outputs on every rank — the acceptance gate for swapping backends.

use eag_core::{Algorithm, Collective};
use eag_netsim::{profile, Mapping, Topology};
use eag_runtime::{run, CipherSuite, DataMode, WorldSpec};

const SEED: u64 = 0xC1F;

/// Runs `algo` over real payloads under `suite` and returns each rank's
/// fully gathered output as one contiguous byte vector.
fn gathered_bytes(suite: CipherSuite, algo: Algorithm, m: usize) -> Vec<Vec<u8>> {
    let mut spec = WorldSpec::new(
        Topology::new(12, 3, Mapping::Block),
        profile::free(),
        DataMode::Real { seed: SEED },
    );
    spec.suite = suite;
    let report = run(&spec, move |ctx| {
        let out = Collective::Allgather(algo).run(ctx, m);
        out.verify(SEED);
        out.into_blocks()
            .iter()
            .flat_map(|c| c.data.to_vec())
            .collect::<Vec<u8>>()
    });
    report.outputs
}

/// Every suite gathers the exact same bytes as the default AES-GCM run,
/// on every rank, for both a bandwidth-optimal and a latency-optimal
/// algorithm.
#[test]
fn all_suites_gather_identical_bytes() {
    for algo in [Algorithm::ORing, Algorithm::OBruck] {
        let reference = gathered_bytes(CipherSuite::AesGcm128, algo, 96);
        assert_eq!(reference.len(), 12);
        assert!(reference.iter().all(|r| r.len() == 12 * 96));
        for suite in CipherSuite::ALL {
            let got = gathered_bytes(suite, algo, 96);
            assert_eq!(got, reference, "{algo} under {suite} diverged");
        }
    }
}

/// The suite is priced but not performed in phantom mode, and the cost
/// model charges by byte count with suite-invariant 28-byte framing — so
/// the virtual latency of a phantom run must not depend on the suite.
#[test]
fn phantom_latency_is_suite_invariant() {
    let latency = |suite: CipherSuite| {
        let mut spec = WorldSpec::new(
            Topology::new(16, 4, Mapping::Block),
            profile::noleland(),
            DataMode::Phantom,
        );
        // NIC contention races arrival order and perturbs the virtual clock
        // run to run; turn it off so any latency difference is the suite's.
        spec.nic_contention = false;
        spec.suite = suite;
        run(&spec, |ctx| {
            Collective::Allgather(Algorithm::ORd)
                .run(ctx, 4096)
                .verify(0);
        })
        .latency_us
    };
    let reference = latency(CipherSuite::AesGcm128);
    for suite in CipherSuite::ALL {
        assert_eq!(latency(suite), reference, "{suite}");
    }
}
