//! Multi-tenant stress: many small concurrent encrypted all-gathers pushed
//! through one [`SessionManager`] — mixed cipher suites, mixed algorithms,
//! a cooperative `workers = 1` session in the mix — asserting that every
//! session's output is byte-exact, that no nonce is reused across session
//! wiretaps, that the serialized sweep reproduces bit-identically, and
//! that the whole thing drains without deadlock (blocking admissions over
//! a shared run-permit gate).

use eag_bench::SimConfig;
use eag_core::{Algorithm, Collective};
use eag_crypto::Key;
use eag_netsim::{profile, Crash, FaultPlan, Mapping, Topology};
use eag_runtime::{AdmitError, CipherSuite, DataMode, SessionConfig, SessionManager, WorldSpec};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

const MASTER: [u8; 16] = [0xC0; 16];
const SEED_BASE: u64 = 0xC0FFEE;

fn service(max_live: usize, nic_bandwidth: f64) -> SessionManager {
    let mut cfg = SessionConfig::new(Key::from_bytes(MASTER));
    cfg.max_live = max_live;
    cfg.queue_capacity = 64;
    cfg.gate_width = Some(4); // one shared pool for every live world
    cfg.physical_nodes = 2;
    cfg.nic_bandwidth = nic_bandwidth;
    SessionManager::new(cfg)
}

/// The per-(tenant, index) session shape: cycles algorithms, cipher
/// suites, and message sizes; every 5th session pins `workers = 1` to run
/// as a cooperative single-thread interleave inside the service.
fn session_spec(tenant: u64, idx: u64) -> (WorldSpec, Algorithm, usize, u64) {
    let algos = Algorithm::encrypted_all();
    let algo = algos[(tenant as usize + idx as usize) % algos.len()];
    let suite = CipherSuite::ALL[idx as usize % CipherSuite::ALL.len()];
    let seed = SEED_BASE ^ (tenant << 16) ^ idx;
    let mut spec = WorldSpec::new(
        Topology::new(8, 2, Mapping::Block),
        profile::noleland(),
        DataMode::Real { seed },
    );
    spec.suite = suite;
    spec.capture_wire = true;
    if idx % 5 == 4 {
        spec.workers = Some(1);
    }
    let msg = 48 + 16 * (idx as usize % 4);
    (spec, algo, msg, seed)
}

/// What one session left behind: its virtual latency and every wire
/// frame's leading nonce paired with the 16 ciphertext bytes after it.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    latency_us: f64,
    frames: Vec<([u8; 12], [u8; 16])>,
}

/// Admits and runs one session. `force_coop` pins `workers = 1` on every
/// session: a cooperatively-interleaved world reserves shared NICs in a
/// deterministic order, which the bit-reproducibility test depends on
/// (free-threaded worlds race their reservation order under finite NIC
/// bandwidth, which is fine for isolation but not for byte-equality).
fn run_session(mgr: &SessionManager, tenant: u64, idx: u64, force_coop: bool) -> (u64, Outcome) {
    let (mut spec, algo, msg, seed) = session_spec(tenant, idx);
    if force_coop {
        spec.workers = Some(1);
    }
    let session = mgr.admit(tenant).expect("admission under capacity");
    let id = session.id();
    let report = session.run(&spec, move |ctx| {
        // verify() checks the gathered output byte-for-byte against the
        // expected pattern blocks of this session's data seed.
        Collective::Allgather(algo).run(ctx, msg).verify(seed);
    });
    let mut frames = Vec::new();
    for f in report.wiretap.frames() {
        let flat = f.bytes.to_vec();
        assert!(flat.len() >= 28, "frame below AEAD framing size");
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&flat[..12]);
        let mut ct = [0u8; 16];
        ct.copy_from_slice(&flat[12..28]);
        frames.push((nonce, ct));
    }
    // The wiretap appends in wall-clock arrival order, which races across
    // rank threads; the frame *set* is the deterministic artifact.
    frames.sort_unstable();
    assert!(!frames.is_empty(), "session captured no inter-node frames");
    (
        id,
        Outcome {
            latency_us: report.latency_us,
            frames,
        },
    )
}

/// The headline stress: 3 tenants x 8 sessions over a 4-slot service with
/// one shared width-4 gate and shared NIC ledgers. Every session's output
/// verifies byte-exactly, blocking admissions all drain (no deadlock), and
/// across the 24 wiretaps no nonce ever pairs with two different
/// ciphertexts — per-session nonce streams must not collide even though
/// all worlds run concurrently over the same fabric.
#[test]
fn concurrent_mixed_suite_sessions_stay_isolated() {
    let mgr = Arc::new(service(4, 5_000.0));
    let outcomes: Arc<Mutex<Vec<(u64, Outcome)>>> = Arc::new(Mutex::new(Vec::new()));

    let mut handles = Vec::new();
    for tenant in 1..=3u64 {
        let mgr = Arc::clone(&mgr);
        let outcomes = Arc::clone(&outcomes);
        handles.push(thread::spawn(move || {
            for idx in 0..8u64 {
                let out = run_session(&mgr, tenant, idx, false);
                outcomes.lock().unwrap().push(out);
            }
        }));
    }
    for h in handles {
        h.join().expect("tenant thread completed without deadlock");
    }

    let outcomes = outcomes.lock().unwrap();
    assert_eq!(outcomes.len(), 24);

    // Cross-session nonce discipline: one global map over all sessions'
    // wire captures. A repeated nonce is only legal as an unmodified
    // forward *within* one session (same session id, same ciphertext).
    let mut seen: HashMap<[u8; 12], (u64, [u8; 16])> = HashMap::new();
    for (id, out) in outcomes.iter() {
        for &(nonce, ct) in &out.frames {
            if let Some(&(prev_id, prev_ct)) = seen.get(&nonce) {
                assert_eq!(
                    (prev_id, prev_ct),
                    (*id, ct),
                    "nonce reused across sessions {prev_id} and {id}"
                );
            } else {
                seen.insert(nonce, (*id, ct));
            }
        }
    }

    let stats = mgr.stats();
    assert_eq!(stats.admitted, 24);
    assert_eq!(stats.completed, 24);
    assert_eq!(stats.shed, 0);
    assert!(
        stats.peak_live <= 4,
        "admission exceeded max_live: {stats:?}"
    );
}

/// A cooperative `workers = 1` session and a default (shared-gate) session
/// running the same collective land on the same virtual latency: the gate
/// only schedules, it never prices, so cooperative interleaving inside the
/// service is an execution detail, not a timing change.
#[test]
fn cooperative_session_matches_shared_gate_latency() {
    let mgr = service(2, f64::INFINITY);
    let (mut spec, algo, msg, seed) = session_spec(1, 0);

    let shared = mgr.admit(1).unwrap();
    let a = shared.run(&spec, move |ctx| {
        Collective::Allgather(algo).run(ctx, msg).verify(seed);
    });
    drop(shared);

    spec.workers = Some(1);
    let coop = mgr.admit(1).unwrap();
    let b = coop.run(&spec, move |ctx| {
        Collective::Allgather(algo).run(ctx, msg).verify(seed);
    });

    assert_eq!(a.latency_us, b.latency_us);
}

/// Serialized reproducibility: the same 8-session sweep through a fresh
/// single-threaded service is bit-identical across managers — same session
/// ids, same virtual latencies, same wire nonces and ciphertext prefixes.
/// Finite NIC bandwidth keeps the shared ledgers in play; per-session
/// retirement must leave nothing behind to perturb the next session.
#[test]
fn serialized_stress_reproduces_bit_identically() {
    let sweep = || -> Vec<(u64, Outcome)> {
        let mgr = service(1, 2_000.0);
        (0..8u64)
            .map(|idx| run_session(&mgr, 1, idx, true))
            .collect()
    };
    let first = sweep();
    let second = sweep();
    assert_eq!(first, second);
}

/// The world one tenant's crash-recovery session runs: a 6-rank / 2-node
/// crash-tolerant all-gather surviving a two-crash schedule.
fn recovery_world(seed: u64) -> WorldSpec {
    let cfg = SimConfig {
        data_seed: Some(seed),
        ..SimConfig::deterministic(6, 2, Mapping::Block, "noleland")
    };
    cfg.world_spec(FaultPlan {
        crashes: vec![Crash::before(0, 0), Crash::before(3, 1)],
        ..FaultPlan::default()
    })
}

/// Backpressure keeps firing while the service is occupied by a tenant
/// deep in multi-crash recovery: with the only slot held by a session
/// surviving a two-crash schedule (run via `Session::run_crashable`), a
/// flooding second tenant gets a typed `AdmitError::Shed` — never a hang —
/// both while the recovery world is mid-flight and after it retires.
#[test]
fn flooding_tenant_is_shed_while_recovery_occupies_the_service() {
    eag_runtime::quiet_expected_panics();
    let mut cfg = SessionConfig::new(Key::from_bytes(MASTER));
    cfg.max_live = 1;
    cfg.queue_capacity = 0; // every queued admission sheds immediately
    cfg.gate_width = Some(2);
    cfg.physical_nodes = 2;
    let mgr = Arc::new(SessionManager::new(cfg));

    let seed = SEED_BASE ^ 0xA;
    let s1 = mgr.admit(1).expect("empty service admits");
    let started = Arc::new(AtomicBool::new(false));
    let (report_tx, report_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let recovering = {
        let started = Arc::clone(&started);
        thread::spawn(move || {
            let report = s1.run_crashable(&recovery_world(seed), move |ctx| {
                started.store(true, Ordering::SeqCst);
                let out = Collective::Allgather(Algorithm::ORing).recover(ctx, 64);
                out.verify(seed);
                out
            });
            report_tx.send(report).unwrap();
            // Hold the session (and its slot) until the main thread has
            // finished probing admission.
            release_rx.recv().unwrap();
        })
    };

    while !started.load(Ordering::SeqCst) {
        thread::yield_now();
    }
    // The recovery world is live and tenant 1 owns the only slot: a
    // flooding tenant must be shed with a typed error, not parked forever.
    match mgr.admit(2).map(|s| s.id()) {
        Err(AdmitError::Shed { tenant: 2, .. }) => {}
        other => panic!("expected Shed during recovery, got {other:?}"),
    }

    let report = report_rx.recv().expect("recovery world completed");
    assert_eq!(report.crashed, vec![0, 3], "both planned crashes fired");
    let failed_sets: Vec<_> = report
        .outputs
        .iter()
        .flatten()
        .map(|out| out.failed.clone())
        .collect();
    assert_eq!(failed_sets.len(), 4, "4 survivors produced output");
    assert!(
        failed_sets.iter().all(|f| f == &failed_sets[0]),
        "survivors diverged on the failed set: {failed_sets:?}"
    );

    // The slot is still held (session not yet retired): shed again.
    assert!(matches!(mgr.admit(2), Err(AdmitError::Shed { .. })));
    release_tx.send(()).unwrap();
    recovering.join().expect("recovery thread");

    let stats = mgr.stats();
    assert_eq!(stats.admitted, 1);
    assert!(stats.shed >= 2, "{stats:?}");
    assert_eq!(stats.completed, 1);
}

/// A tenant parked in the admission queue holds *no* run-gate permits: the
/// shared gate only ever backs running worlds. With the single slot held
/// by a tenant that just finished a crash-recovery world, a second
/// tenant's blocking admission parks — and the gate reads fully free.
/// Releasing the slot un-parks the tenant, whose session then runs
/// normally.
#[test]
fn parked_tenant_holds_no_run_gate_permits() {
    eag_runtime::quiet_expected_panics();
    let mut cfg = SessionConfig::new(Key::from_bytes(MASTER));
    cfg.max_live = 1;
    cfg.queue_capacity = 1;
    cfg.gate_width = Some(2);
    cfg.physical_nodes = 2;
    let mgr = Arc::new(SessionManager::new(cfg));
    let gate = mgr.gate();

    let seed = SEED_BASE ^ 0xB;
    let s1 = mgr.admit(1).expect("empty service admits");
    let report = s1.run_crashable(&recovery_world(seed), move |ctx| {
        let out = Collective::Allgather(Algorithm::OBruck).recover(ctx, 64);
        out.verify(seed);
        out
    });
    assert_eq!(report.crashed, vec![0, 3]);
    assert_eq!(
        gate.free_permits(),
        gate.width(),
        "a finished world must return every permit"
    );

    // Tenant 2 parks behind the still-held slot.
    let parked = {
        let mgr = Arc::clone(&mgr);
        thread::spawn(move || {
            let session = mgr.admit(2).expect("parked admission is granted, not shed");
            let spec = WorldSpec::new(
                Topology::new(4, 2, Mapping::Block),
                profile::noleland(),
                DataMode::Real { seed },
            );
            session.run(&spec, move |ctx| {
                Collective::Allgather(Algorithm::ORing)
                    .run(ctx, 64)
                    .verify(seed);
            });
        })
    };
    // Give the admission time to park, then check it consumed nothing
    // from the gate: parked tenants wait on the admission queue, not on
    // run permits.
    thread::sleep(Duration::from_millis(100));
    assert_eq!(
        gate.free_permits(),
        gate.width(),
        "a parked tenant must hold no run-gate permits"
    );

    drop(s1); // frees the slot; the parked tenant is granted and runs
    parked
        .join()
        .expect("parked tenant completed after the slot freed");
    let stats = mgr.stats();
    assert_eq!(stats.admitted, 2);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.shed, 0);
}

/// Nonce-stream separation by session id: two sessions running the *same*
/// spec (same data seed, suite, algorithm) under one manager get distinct
/// session ids, and their wire nonces must differ even though everything
/// else about the runs — including the virtual latency — is identical.
#[test]
fn same_spec_different_session_ids_use_distinct_nonce_streams() {
    let mgr = service(1, f64::INFINITY);
    let (id_a, a) = run_session(&mgr, 1, 0, false);
    let (id_b, b) = run_session(&mgr, 1, 0, false);
    assert_ne!(id_a, id_b);
    assert_eq!(a.latency_us, b.latency_us);
    assert_ne!(a.frames, b.frames);
}
