//! Tests for the world: basic messaging/pricing semantics plus the chaos
//! transport (fault injection, NACK recovery, dedup, typed failures).

use super::*;
use eag_netsim::{profile, Crash, FaultKind, Mapping};

fn spec(p: usize, nodes: usize) -> WorldSpec {
    WorldSpec::new(
        Topology::new(p, nodes, Mapping::Block),
        profile::unit(),
        DataMode::Real { seed: 1 },
    )
}

/// `Result::expect_err` without requiring `Debug` on the report.
fn unwrap_err<T>(r: Result<RunReport<T>, CollectiveError>, msg: &str) -> CollectiveError {
    match r {
        Err(e) => e,
        Ok(_) => panic!("{msg}"),
    }
}

/// A fast retry policy so chaos tests converge in milliseconds.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        attempt_timeout: Duration::from_millis(10),
        max_attempts: 8,
        backoff: 1.5,
    }
}

/// Satellite-1 regression: two concurrent worlds handed the *same* gate
/// must together never run more ranks than the gate's width. Before the
/// shared gate existed, each world built its own
/// `available_parallelism()`-wide pool, so N sessions oversubscribed the
/// host N×.
#[test]
fn shared_gate_bounds_ranks_across_concurrent_worlds() {
    use std::sync::atomic::AtomicUsize;

    let gate = Arc::new(RunGate::new(2));
    let running = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let worlds: Vec<_> = (0..3)
        .map(|w| {
            let mut s = spec(4, 2);
            s.gate = Some(Arc::clone(&gate));
            s.session_id = w as u64;
            let running = Arc::clone(&running);
            let peak = Arc::clone(&peak);
            std::thread::spawn(move || {
                run(&s, move |ctx| {
                    // Occupy the permit for a visible wall-clock window so
                    // the worlds genuinely overlap.
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(3));
                    running.fetch_sub(1, Ordering::SeqCst);
                    ctx.rank()
                })
            })
        })
        .collect();
    for (w, handle) in worlds.into_iter().enumerate() {
        let report = handle.join().unwrap();
        assert_eq!(report.outputs, vec![0, 1, 2, 3], "world {w} outputs");
    }
    let peak = peak.load(Ordering::SeqCst);
    assert!(
        peak <= 2,
        "shared gate must bound total running ranks across worlds; peak was {peak}"
    );
}

/// Default-configured specs (no explicit workers, no explicit gate) all
/// resolve to the one process-global gate.
#[test]
fn default_specs_share_the_global_gate() {
    let a = resolve_gate(&spec(2, 1));
    let b = resolve_gate(&spec(8, 2));
    assert!(Arc::ptr_eq(&a, &b), "default worlds must share one gate");
    assert!(Arc::ptr_eq(&a, &RunGate::global()));
    // An explicit worker count still gets a private gate of that width.
    let mut pinned = spec(2, 1);
    pinned.workers = Some(1);
    let g = resolve_gate(&pinned);
    assert!(!Arc::ptr_eq(&g, &a));
    assert_eq!(g.width(), 1);
}

#[test]
fn ranks_see_their_identity() {
    let report = run(&spec(4, 2), |ctx| (ctx.rank(), ctx.node()));
    assert_eq!(report.outputs, vec![(0, 0), (1, 0), (2, 1), (3, 1)]);
}

#[test]
fn simple_exchange_moves_data_and_clock() {
    // Rank 0 sends 10 bytes to rank 1 (intra-node in a 2x1 world).
    let report = run(&spec(2, 1), |ctx| {
        if ctx.rank() == 0 {
            let chunk = ctx.my_block(10);
            ctx.send(1, 1, Parcel::one(Item::Plain(chunk)));
            Vec::new()
        } else {
            let parcel = ctx.recv(0, 1);
            parcel.items[0].clone().into_plain().data.to_vec()
        }
    });
    assert_eq!(report.outputs[1], crate::payload::pattern_block(1, 0, 10));
    // Unit model: sender occupied 10 B / 1 B/µs = 10 µs; arrival 11 µs.
    assert_eq!(report.clocks_us[0], 10.0);
    assert_eq!(report.clocks_us[1], 11.0);
    assert_eq!(report.latency_us, 11.0);
    assert_eq!(report.metrics[1].comm_rounds, 1);
    assert_eq!(report.metrics[0].bytes_sent, 10);
}

#[test]
fn encrypt_decrypt_roundtrip_real_mode() {
    let report = run(&spec(1, 1), |ctx| {
        let chunk = ctx.my_block(100);
        let expected = chunk.data.to_vec();
        let sealed = ctx.encrypt(chunk);
        assert_eq!(sealed.wire_len(), 128);
        let back = ctx.decrypt(sealed);
        (expected, back.data.to_vec())
    });
    let (expected, got) = &report.outputs[0];
    assert_eq!(expected, got);
    // Unit crypto: (1 + 100) each way.
    assert_eq!(report.latency_us, 202.0);
    assert_eq!(report.metrics[0].enc_rounds, 1);
    assert_eq!(report.metrics[0].dec_bytes, 100);
}

#[test]
fn phantom_mode_tracks_lengths() {
    let mut s = spec(2, 2);
    s.mode = DataMode::Phantom;
    let report = run(&s, |ctx| {
        if ctx.rank() == 0 {
            let sealed = ctx.encrypt(ctx.my_block(50));
            ctx.send(1, 7, Parcel::one(Item::Sealed(sealed)));
            0
        } else {
            let parcel = ctx.recv(0, 7);
            let sealed = parcel.items[0].clone().into_sealed();
            let chunk = ctx.decrypt(sealed);
            chunk.data.len()
        }
    });
    assert_eq!(report.outputs[1], 50);
    assert_eq!(report.wiretap.frame_count(), 1);
    assert_eq!(report.wiretap.frames()[0].len, 78);
}

#[test]
fn inter_node_frames_are_captured() {
    let mut s = spec(2, 2);
    s.capture_wire = true;
    let report = run(&s, |ctx| {
        if ctx.rank() == 0 {
            let sealed = ctx.encrypt(ctx.my_block(16));
            ctx.send(1, 3, Parcel::one(Item::Sealed(sealed)));
        } else {
            let _ = ctx.recv(0, 3);
        }
    });
    assert_eq!(report.wiretap.frame_count(), 1);
    let frames = report.wiretap.frames();
    assert_eq!(frames[0].kind, FrameKind::Cipher);
    assert_eq!(frames[0].bytes.len(), 16 + WIRE_OVERHEAD);
    // The plaintext pattern must not appear in the captured frame.
    let pt = crate::payload::pattern_block(1, 0, 16);
    assert!(!report.wiretap.contains(&pt));
}

#[test]
fn intra_node_frames_are_not_captured() {
    let report = run(&spec(2, 1), |ctx| {
        if ctx.rank() == 0 {
            let chunk = ctx.my_block(16);
            ctx.send(1, 3, Parcel::one(Item::Plain(chunk)));
        } else {
            let _ = ctx.recv(0, 3);
        }
    });
    assert_eq!(report.wiretap.frame_count(), 0);
}

#[test]
fn sendrecv_pairs_exchange() {
    let report = run(&spec(2, 1), |ctx| {
        let peer = 1 - ctx.rank();
        let mine = ctx.my_block(8);
        let got = ctx.sendrecv(peer, peer, 5, Parcel::one(Item::Plain(mine)));
        got.items[0].origins()[0]
    });
    assert_eq!(report.outputs, vec![1, 0]);
}

#[test]
fn shared_memory_deposit_fetch_and_barrier() {
    let report = run(&spec(2, 1), |ctx| {
        if (ctx.rank()) == 0 {
            let item = Item::Plain(ctx.my_block(4));
            ctx.shared_deposit((1, 0), item, 2);
        }
        ctx.node_barrier();
        // Fetch and copy out: the read itself is free, the copy is charged.
        let got = ctx.shared_fetch_free((1, 0));
        ctx.charge_copy(got.wire_len());
        ctx.node_barrier();
        (got.origins()[0], ctx.shared_slots_len())
    });
    // Both ranks got rank 0's block, and the slot self-removed after its
    // last declared consumer.
    assert_eq!(report.outputs, vec![(0, 0), (0, 0)]);
    assert!(report.metrics[1].copies >= 1);
}

#[test]
fn recv_watchdog_converts_hangs_into_panics() {
    let mut s = spec(2, 1);
    s.recv_timeout = Some(Duration::from_millis(200));
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        run(&s, |ctx| {
            if ctx.rank() == 0 {
                // Wrong tag: rank 0 waits for a message that never comes.
                let _ = ctx.recv(1, 12345);
            }
            // Rank 1 exits immediately.
        })
    }));
    assert!(result.is_err(), "hang was not detected");
}

#[test]
fn panic_on_one_rank_propagates_without_deadlock() {
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        run(&spec(4, 2), |ctx| {
            if ctx.rank() == 2 {
                panic!("boom on rank 2");
            }
            // Everyone else blocks on a message that never comes.
            let _ = ctx.recv(2, 99);
        })
    }));
    assert!(result.is_err());
}

#[test]
fn self_send_is_free_and_delivered() {
    let report = run(&spec(2, 1), |ctx| {
        if ctx.rank() == 0 {
            let chunk = ctx.my_block(64);
            ctx.send(0, 42, Parcel::one(Item::Plain(chunk)));
            let got = ctx.recv(0, 42);
            (got.items[0].origins()[0], ctx.clock_us())
        } else {
            (1, 0.0)
        }
    });
    let (origin, clock) = report.outputs[0];
    assert_eq!(origin, 0);
    // Self-loop link: no communication cost charged.
    assert_eq!(clock, 0.0);
}

#[test]
fn self_loop_traffic_is_excluded_from_metrics() {
    // A rank handing a parcel to itself is a local buffer move; none of
    // the Table II communication columns may count it.
    let report = run(&spec(2, 1), |ctx| {
        if ctx.rank() == 0 {
            let chunk = ctx.my_block(64);
            ctx.send(0, 42, Parcel::one(Item::Plain(chunk)));
            let _ = ctx.recv(0, 42);
        }
    });
    let m = report.metrics[0];
    assert_eq!(m.bytes_sent, 0, "self-send must not count bytes_sent");
    assert_eq!(m.payload_sent, 0, "self-send must not count payload_sent");
    assert_eq!(m.comm_rounds, 0, "self-receive must not count a round");
    assert_eq!(m.bytes_recv, 0, "self-receive must not count bytes_recv");
    assert_eq!(
        m.payload_recv, 0,
        "self-receive must not count payload_recv"
    );
}

#[test]
fn mixed_self_and_peer_traffic_counts_only_the_peer_leg() {
    let report = run(&spec(2, 1), |ctx| {
        if ctx.rank() == 0 {
            ctx.send(0, 1, Parcel::one(Item::Plain(ctx.my_block(32))));
            ctx.send(1, 2, Parcel::one(Item::Plain(ctx.my_block(10))));
            let _ = ctx.recv(0, 1);
        } else {
            let _ = ctx.recv(0, 2);
        }
    });
    // Sender: only the 10-byte intra-node leg counts.
    assert_eq!(report.metrics[0].bytes_sent, 10);
    assert_eq!(report.metrics[0].comm_rounds, 0);
    // Receiver: one genuine round.
    assert_eq!(report.metrics[1].comm_rounds, 1);
    assert_eq!(report.metrics[1].bytes_recv, 10);
}

#[test]
fn recv_watchdog_deadline_is_absolute_not_per_message() {
    // Rank 1 keeps feeding rank 0 messages with an unrelated tag at a
    // cadence shorter than the timeout. Under the buggy per-poll
    // interpretation each arrival restarts the clock and the watchdog
    // fires only long after the feeder stops; with an absolute deadline
    // it fires once the limit elapses regardless of traffic.
    let mut s = spec(2, 1);
    s.recv_timeout = Some(Duration::from_millis(200));
    let err = unwrap_err(
        try_run(&s, |ctx| {
            if ctx.rank() == 0 {
                // Waits for a tag that never arrives.
                let _ = ctx.recv(1, 999);
            } else {
                for _ in 0..8 {
                    std::thread::sleep(Duration::from_millis(60));
                    ctx.send(0, 1, Parcel::one(Item::Plain(ctx.my_block(1))));
                }
            }
        }),
        "watchdog did not fire",
    );
    // 8 feeds x 60 ms keep a per-poll timer alive past 480 ms; the absolute
    // deadline fires at ~200 ms. The error's `waited` field records when the
    // watchdog actually tripped (the run itself only returns once the feeder
    // thread exits). Generous margin for CI noise.
    match err.cause {
        FailureCause::Timeout { src, waited, .. } => {
            assert_eq!(src, 1);
            assert!(
                waited < Duration::from_millis(450),
                "watchdog waited {waited:?}; deadline is being reset per message"
            );
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
}

#[test]
fn reset_accounting_clears_clock_and_metrics() {
    let report = run(&spec(2, 1), |ctx| {
        let sealed = ctx.encrypt(ctx.my_block(100));
        let _ = ctx.decrypt(sealed);
        assert!(ctx.clock_us() > 0.0);
        assert!(ctx.metrics().enc_rounds > 0);
        ctx.reset_accounting();
        (ctx.clock_us(), ctx.metrics())
    });
    for (clock, metrics) in report.outputs {
        assert_eq!(clock, 0.0);
        assert_eq!(metrics, Metrics::default());
    }
}

#[test]
fn charge_helpers_accumulate_copies() {
    let report = run(&spec(1, 1), |ctx| {
        ctx.charge_copy(1000);
        ctx.charge_strided_copy(1000);
        ctx.metrics()
    });
    let m = report.outputs[0];
    assert_eq!(m.copies, 2);
    assert_eq!(m.copy_bytes, 2000);
}

#[test]
fn phantom_fault_injection_is_inert() {
    // Legacy corruption only flips real bytes; a phantom run must complete.
    let mut s = spec(2, 2);
    s.mode = DataMode::Phantom;
    s.faults = FaultPlan {
        corrupt_nth_inter_frame: Some(0),
        ..FaultPlan::default()
    };
    let report = run(&s, |ctx| {
        if ctx.rank() == 0 {
            let sealed = ctx.encrypt(ctx.my_block(32));
            ctx.send(1, 1, Parcel::one(Item::Sealed(sealed)));
        } else {
            let got = ctx.recv(0, 1);
            let _ = ctx.decrypt(got.items[0].clone().into_sealed());
        }
    });
    assert_eq!(report.outputs.len(), 2);
}

#[test]
fn epochs_scope_slot_keys() {
    let report = run(&spec(2, 1), |ctx| {
        // Same (base, idx) in two epochs must address distinct slots.
        ctx.begin_collective();
        let k1 = ctx.slot(7, 0);
        ctx.begin_collective();
        let k2 = ctx.slot(7, 0);
        (k1, k2)
    });
    for (k1, k2) in report.outputs {
        assert_ne!(k1, k2);
        assert_eq!(k1.1, k2.1);
    }
}

#[test]
fn nic_contention_serializes_when_enabled() {
    // Two ranks on node 0 both send 1000 B to node 1. Unit model has
    // infinite NIC bandwidth, so use a custom profile.
    let mut profile = profile::unit();
    profile.model.nic_bandwidth = 1.0; // 1 B/µs, same as stream rate
    let spec = WorldSpec {
        topology: Topology::new(4, 2, Mapping::Block),
        profile,
        mode: DataMode::Phantom,
        suite: eag_crypto::CipherSuite::AesGcm128,
        nic_contention: true,
        capture_wire: false,
        trace: false,
        faults: FaultPlan::default(),
        retry: RetryPolicy::default(),
        recv_timeout: Some(Duration::from_secs(300)),
        suspect_after: None,
        workers: None,
        gate: None,
        shared_nics: None,
        session_id: 0,
        key: None,
    };
    let report = run(&spec, |ctx| match ctx.rank() {
        0 | 1 => {
            let chunk = ctx.my_block(1000);
            ctx.send(ctx.rank() + 2, 1, Parcel::one(Item::Plain(chunk)));
        }
        r => {
            let _ = ctx.recv(r - 2, 1);
        }
    });
    // One of the receivers sees its message delayed behind the other's
    // NIC occupancy: latencies 1001 and 2001.
    let mut recv_clocks = [report.clocks_us[2], report.clocks_us[3]];
    recv_clocks.sort_by(f64::total_cmp);
    assert_eq!(recv_clocks[0], 1001.0);
    assert_eq!(recv_clocks[1], 2001.0);
}

// ----- chaos transport --------------------------------------------------

/// A 2-rank, 2-node spec with chaos armed via `fault_nth_inter_frame`.
fn chaos_world(kind: FaultKind) -> WorldSpec {
    let mut s = spec(2, 2);
    s.faults = FaultPlan {
        fault_nth_inter_frame: Some((0, kind)),
        ..FaultPlan::default()
    };
    s.retry = fast_retry();
    s
}

fn exchange_one(s: &WorldSpec, len: usize) -> RunReport<Vec<u8>> {
    run(s, move |ctx| {
        if ctx.rank() == 0 {
            let chunk = ctx.my_block(len);
            ctx.send(1, 1, Parcel::one(Item::Plain(chunk)));
            Vec::new()
        } else {
            let parcel = ctx.recv(0, 1);
            parcel.items[0].clone().into_plain().data.to_vec()
        }
    })
}

#[test]
fn dropped_frame_is_nacked_and_retransmitted() {
    let s = chaos_world(FaultKind::Drop);
    let report = exchange_one(&s, 40);
    assert_eq!(report.outputs[1], crate::payload::pattern_block(1, 0, 40));
    // The receiver timed out at least once and NACKed; the sender (from its
    // linger loop) replayed the logged frame.
    assert!(report.metrics[1].nacks_sent >= 1, "no NACK was issued");
    assert!(report.metrics[0].retransmits >= 1, "no retransmission");
    assert_eq!(report.metrics[0].faults_injected, 1);
    // Accounting separation: the original frame only in bytes_sent, the
    // replay only in retransmit_bytes.
    assert_eq!(report.metrics[0].bytes_sent, 40);
    assert!(report.metrics[0].retransmit_bytes >= 40);
    assert_eq!(report.metrics[1].bytes_recv, 40);
}

#[test]
fn random_tamper_is_caught_by_transport_checksum() {
    let s = chaos_world(FaultKind::Tamper);
    let report = exchange_one(&s, 32);
    // Recovered: the delivered bytes are the clean pattern.
    assert_eq!(report.outputs[1], crate::payload::pattern_block(1, 0, 32));
    assert!(
        report.metrics[1].faults_detected >= 1,
        "corruption went undetected"
    );
    assert!(report.metrics[0].retransmits >= 1);
}

#[test]
fn adversarial_tamper_is_caught_by_hop_verification() {
    // The adversary recomputes the transport checksum, so only the per-hop
    // GCM verification of the sealed item can catch the corruption.
    let mut s = chaos_world(FaultKind::Tamper);
    s.faults.adversarial_tamper = true;
    let report = run(&s, |ctx| {
        if ctx.rank() == 0 {
            let sealed = ctx.encrypt(ctx.my_block(48));
            ctx.send(1, 1, Parcel::one(Item::Sealed(sealed)));
            Vec::new()
        } else {
            let parcel = ctx.recv(0, 1);
            let chunk = ctx.decrypt(parcel.items[0].clone().into_sealed());
            chunk.data.to_vec()
        }
    });
    assert_eq!(report.outputs[1], crate::payload::pattern_block(1, 0, 48));
    assert!(report.metrics[1].faults_detected >= 1);
    assert!(report.metrics[0].retransmits >= 1);
}

#[test]
fn duplicated_frame_is_deduplicated() {
    let s = chaos_world(FaultKind::Duplicate);
    let report = run(&s, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 1, Parcel::one(Item::Plain(ctx.my_block(8))));
            ctx.send(1, 2, Parcel::one(Item::Plain(ctx.my_block(16))));
            0
        } else {
            // Receiving tag 2 forces the duplicate of tag 1 (queued between
            // the two originals) through admission, where dedup counts it.
            let a = ctx.recv(0, 1).wire_len();
            let b = ctx.recv(0, 2).wire_len();
            a + b
        }
    });
    assert_eq!(report.outputs[1], 24);
    assert_eq!(report.metrics[1].dup_frames_dropped, 1);
    // Exactly two genuine rounds despite three deliveries.
    assert_eq!(report.metrics[1].comm_rounds, 2);
    assert_eq!(report.metrics[1].bytes_recv, 24);
}

#[test]
fn reordered_frames_are_delivered_in_sequence_order() {
    // Frame 0 of tag 1 is held back past frame 1 of the same tag; the
    // receiver must still observe stream order (8 bytes then 16 bytes).
    let s = chaos_world(FaultKind::Reorder);
    let report = run(&s, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 1, Parcel::one(Item::Plain(ctx.my_block(8))));
            ctx.send(1, 1, Parcel::one(Item::Plain(ctx.my_block(16))));
            (0, 0)
        } else {
            let a = ctx.recv(0, 1).wire_len();
            let b = ctx.recv(0, 1).wire_len();
            (a, b)
        }
    });
    assert_eq!(report.outputs[1], (8, 16), "stream order was not restored");
}

#[test]
fn dead_peer_fails_fast_with_typed_error() {
    let mut s = spec(2, 1);
    // No chaos: a finished peer can never send; must fail well before the
    // 300 s default watchdog.
    let started = Instant::now();
    s.recv_timeout = Some(Duration::from_secs(30));
    let err = unwrap_err(
        try_run(&s, |ctx| {
            if ctx.rank() == 0 {
                ctx.set_phase("demo-phase");
                let _ = ctx.recv(1, 77);
            }
            // Rank 1 exits immediately.
        }),
        "missing sender must fail the collective",
    );
    assert!(started.elapsed() < Duration::from_secs(5), "not fast");
    assert_eq!(err.rank, 0);
    assert_eq!(err.phase, "demo-phase");
    assert_eq!(err.cause, FailureCause::DeadPeer { peer: 1, tag: 77 });
}

#[test]
fn exhausted_retries_fail_with_typed_timeout() {
    let mut s = spec(2, 1);
    s.faults = FaultPlan {
        armed: true,
        ..FaultPlan::default()
    };
    s.retry = RetryPolicy {
        attempt_timeout: Duration::from_millis(5),
        max_attempts: 3,
        backoff: 1.0,
    };
    s.recv_timeout = Some(Duration::from_secs(30));
    let err = unwrap_err(
        try_run(&s, |ctx| {
            if ctx.rank() == 0 {
                let _ = ctx.recv(1, 5);
            } else {
                // Alive (so no DeadPeer) but never sending tag 5.
                std::thread::sleep(Duration::from_millis(300));
            }
        }),
        "silent peer must exhaust the retry budget",
    );
    assert_eq!(err.rank, 0);
    match err.cause {
        FailureCause::Timeout {
            src, tag, attempts, ..
        } => {
            assert_eq!(src, 1);
            assert_eq!(tag, 5);
            assert_eq!(attempts, 3);
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
}

#[test]
fn forged_ciphertext_fails_with_typed_auth_error() {
    // The legacy unrecovered adversary corrupts a sealed frame without
    // arming recovery: decrypt must raise a typed AuthFailure.
    let mut s = spec(2, 2);
    s.faults = FaultPlan {
        corrupt_nth_inter_frame: Some(0),
        ..FaultPlan::default()
    };
    let err = unwrap_err(
        try_run(&s, |ctx| {
            if ctx.rank() == 0 {
                let sealed = ctx.encrypt(ctx.my_block(24));
                ctx.send(1, 9, Parcel::one(Item::Sealed(sealed)));
            } else {
                let parcel = ctx.recv(0, 9);
                let _ = ctx.decrypt(parcel.items[0].clone().into_sealed());
            }
        }),
        "forged ciphertext must abort the collective",
    );
    assert_eq!(err.rank, 1);
    assert!(matches!(err.cause, FailureCause::AuthFailure { .. }));
}

#[test]
fn try_run_passes_reports_through_on_success() {
    let report = try_run(&spec(2, 1), |ctx| ctx.rank()).expect("clean run");
    assert_eq!(report.outputs, vec![0, 1]);
}

#[test]
fn armed_framing_at_zero_rate_changes_results_nothing() {
    // `armed` turns on sequence numbers, checksums, and the retransmit log
    // without injecting anything: results and traffic metrics must match a
    // plain run, and no recovery action may fire.
    let mut s = spec(4, 2);
    s.faults = FaultPlan {
        armed: true,
        ..FaultPlan::default()
    };
    s.retry = fast_retry();
    let run_ring = |s: &WorldSpec| {
        run(s, |ctx| {
            let p = ctx.p();
            let next = (ctx.rank() + 1) % p;
            let prev = (ctx.rank() + p - 1) % p;
            let mut got = Vec::new();
            let mut cur = Parcel::one(Item::Plain(ctx.my_block(16)));
            for _ in 0..p - 1 {
                cur = ctx.sendrecv(next, prev, 3, cur);
                got.push(cur.items[0].origins()[0]);
            }
            got
        })
    };
    let armed = run_ring(&s);
    let plain = run_ring(&spec(4, 2));
    assert_eq!(armed.outputs, plain.outputs);
    for (a, b) in armed.metrics.iter().zip(plain.metrics.iter()) {
        assert_eq!(a.bytes_sent, b.bytes_sent);
        assert_eq!(a.comm_rounds, b.comm_rounds);
        assert_eq!(a.retries(), 0);
        assert_eq!(a.faults_injected, 0);
        assert_eq!(a.faults_detected, 0);
    }
}

#[test]
fn rate_based_chaos_recovers_a_multi_frame_stream() {
    // Aggressive rates over a long stream: every frame must still arrive,
    // in order, with clean bytes.
    let mut s = spec(2, 2);
    s.faults = FaultPlan {
        seed: 0xC0FFEE,
        drop_permille: 100,
        tamper_permille: 100,
        duplicate_permille: 50,
        reorder_permille: 50,
        delay_permille: 50,
        ..FaultPlan::default()
    };
    s.retry = fast_retry();
    let n = 40usize;
    let report = run(&s, move |ctx| {
        if ctx.rank() == 0 {
            for i in 0..n {
                ctx.send(1, 4, Parcel::one(Item::Plain(ctx.my_block(8 + i))));
            }
            Vec::new()
        } else {
            (0..n).map(|_| ctx.recv(0, 4).wire_len()).collect()
        }
    });
    let want: Vec<usize> = (0..n).map(|i| 8 + i).collect();
    assert_eq!(report.outputs[1], want, "stream corrupted or misordered");
    assert!(
        report.metrics[0].faults_injected > 0,
        "rates injected nothing — weak test"
    );
    assert!(report.metrics[1].retries() > 0);
    // Traffic metrics stay fault-independent.
    let sent: usize = want.iter().sum();
    assert_eq!(report.metrics[0].bytes_sent as usize, sent);
    assert_eq!(report.metrics[1].bytes_recv as usize, sent);
    assert_eq!(report.metrics[1].comm_rounds as usize, n);
}

#[test]
fn sent_log_clone_is_zero_copy_and_tamper_is_cow() {
    // The retransmit log stores `parcel.clone()` — with rope payloads that
    // is a refcount bump, not a deep copy. The tamper flip that follows in
    // `send()` is copy-on-write, so the logged (pre-fault) frame replayed by
    // a NACK still carries the original bytes.
    let wire: Vec<u8> = (0u8..=63).collect();
    let mut parcel = Parcel::one(Item::Sealed(Sealed {
        origins: vec![0],
        block_len: 36,
        plain_len: 36,
        data: Data::Real(wire.clone().into()),
    }));
    eag_rope::probe::reset();
    let logged = parcel.clone(); // what send() pushes into the sent_log
    assert_eq!(
        eag_rope::probe::snapshot().copied_bytes,
        0,
        "logging a frame copied payload bytes"
    );
    let before = logged.checksum();
    corrupt_parcel(&mut parcel);
    assert_ne!(parcel.checksum(), before, "tamper had no effect");
    assert_eq!(logged.checksum(), before, "tamper leaked into the log");
    assert_eq!(logged.items[0].clone().into_sealed().data.to_vec(), wire);
}

#[test]
fn slices_of_one_buffer_are_safely_shared_across_threads() {
    // Rank 0 freezes one buffer, sends two slice views of it to two other
    // rank threads, and keeps reading the parent rope itself: three threads
    // observing the same refcounted buffer concurrently.
    let report = run(&spec(3, 1), |ctx| {
        if ctx.rank() == 0 {
            let rope = ctx.my_block(64).data.rope().clone();
            for (dst, range) in [(1usize, 0..32), (2usize, 32..64)] {
                let part = Chunk {
                    origins: vec![0],
                    block_len: 32,
                    data: Data::Real(rope.slice(range)),
                };
                ctx.send(dst, 1, Parcel::one(Item::Plain(part)));
            }
            rope.to_vec()
        } else {
            ctx.recv(0, 1).items[0].clone().into_plain().data.to_vec()
        }
    });
    let whole = crate::payload::pattern_block(1, 0, 64);
    assert_eq!(report.outputs[0], whole);
    assert_eq!(report.outputs[1], whole[..32]);
    assert_eq!(report.outputs[2], whole[32..]);
}

// ----- crash tolerance --------------------------------------------------

/// A 2-rank, 2-node spec whose fault plan kills rank 0 per `crash`.
fn crash_world(crash: Crash) -> WorldSpec {
    let mut s = spec(2, 2);
    s.faults = FaultPlan {
        crashes: vec![crash],
        ..FaultPlan::default()
    };
    s.retry = fast_retry();
    s
}

#[test]
fn soft_crash_resolves_blocked_recv_without_waiting_out_the_deadline() {
    // Rank 0 dies before its first send; rank 1 is blocked on that message.
    // The departure record must resolve the receive in milliseconds, not after
    // the 300 s recv_timeout or the full retry budget.
    let mut s = crash_world(Crash::before(0, 0));
    s.trace = true;
    let t0 = Instant::now();
    let report = run_crashable(&s, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 7, Parcel::one(Item::Plain(ctx.my_block(16))));
            None
        } else {
            Some(ctx.try_recv(0, 7))
        }
    });
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "crash detection took {:?}",
        t0.elapsed()
    );
    assert_eq!(report.crashed, vec![0]);
    assert!(report.outputs[0].is_none());
    let got = report.outputs[1].clone().expect("survivor output");
    assert_eq!(
        got.expect("closure ran on rank 1").unwrap_err(),
        FailureCause::Crash { rank: 0 }
    );
    assert_eq!(report.metrics[1].crashes_detected, 1);
    assert_eq!(report.wiretap.crashed_ranks(), vec![0]);
    // Both the dying rank and the detector recorded Crash markers.
    for rank in 0..2 {
        assert!(
            report.traces[rank]
                .iter()
                .any(|e| matches!(e.kind, EventKind::Crash { rank: 0 })),
            "rank {rank} trace missing crash marker"
        );
    }
}

#[test]
fn crash_after_send_delivers_the_final_frame_first() {
    // `after_send` kills rank 0 *after* frame 0 left: rank 1 still gets it.
    let report = run_crashable(&crash_world(Crash::after(0, 0)), |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 7, Parcel::one(Item::Plain(ctx.my_block(16))));
            unreachable!("rank 0 must die inside the send");
        }
        let first = ctx.try_recv(0, 7).map(|p| p.wire_len());
        let second = ctx.try_recv(0, 8).map(|p| p.wire_len());
        (first, second)
    });
    assert_eq!(report.crashed, vec![0]);
    let (first, second) = report.outputs[1].clone().expect("survivor output");
    assert_eq!(first, Ok(16), "frame sent before the crash must arrive");
    assert_eq!(
        second.unwrap_err(),
        FailureCause::Crash { rank: 0 },
        "frame after the crash point must fail via the detector"
    );
}

#[test]
fn hard_crash_is_suspected_after_silent_departure() {
    // A hard crash leaves no notice: survivors learn of it only from the
    // scheduler's departure record, suspected after the grace period.
    let mut s = crash_world(Crash::before(0, 0).hard());
    s.suspect_after = Some(Duration::from_millis(100));
    let t0 = Instant::now();
    let report = run_crashable(&s, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 7, Parcel::one(Item::Plain(ctx.my_block(16))));
            None
        } else {
            Some(ctx.try_recv(0, 7))
        }
    });
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "silent-departure suspicion took {:?}",
        t0.elapsed()
    );
    assert_eq!(report.crashed, vec![0]);
    let got = report.outputs[1].clone().expect("survivor output");
    assert_eq!(
        got.expect("closure ran on rank 1").unwrap_err(),
        FailureCause::Crash { rank: 0 }
    );
}

#[test]
fn every_liveness_verdict_is_the_scheduler_departure_record() {
    // Liveness has one owner. Rank 0 finishes, rank 1 crashes softly and
    // rank 2 crashes hard; rank 3 probes all three. Each verdict the
    // detector gives must be the one the scheduler's departure record of
    // that rank dictates — there is no second copy to consult.
    let mut s = spec(4, 4);
    s.faults = FaultPlan {
        crashes: vec![Crash::before(1, 0), Crash::before(2, 0).hard()],
        ..FaultPlan::default()
    };
    s.retry = fast_retry();
    s.recv_timeout = Some(Duration::from_secs(30));
    let grace = Duration::from_millis(100);
    s.suspect_after = Some(grace);
    let t0 = Instant::now();
    let report = run_crashable(&s, move |ctx| {
        match ctx.rank() {
            0 => return None,
            1 | 2 => ctx.send(3, 7, Parcel::one(Item::Plain(ctx.my_block(8)))),
            _ => {}
        }
        // Probe the finished rank last: by then every other rank has
        // departed, and the `DeadPeer` verdict of an armed world needs
        // rank 0's `NackMiss` — so rank 0 was still lingering at p-1
        // departures.
        let probes = [1, 2, 0].map(|src| {
            let verdict = ctx.try_recv(src, 7).unwrap_err();
            let sched = &ctx.world.sched;
            let silent_for = sched.hard_departed_at(src).map(|at| at.elapsed());
            (
                verdict,
                sched.departure(src),
                silent_for,
                sched.departures(),
            )
        });
        Some(probes)
    });
    assert_eq!(report.crashed, vec![1, 2]);
    let [soft, hard, finished] = report.outputs[3].clone().flatten().expect("prober output");
    // A soft crash is a verdict as soon as its record exists.
    assert_eq!(soft.0, FailureCause::Crash { rank: 1 });
    assert_eq!(soft.1, Some(Departure::SoftCrash));
    // A hard crash only once its record has been silent for the grace period.
    assert_eq!(hard.0, FailureCause::Crash { rank: 2 });
    assert_eq!(hard.1, Some(Departure::HardCrash));
    assert!(hard.2.expect("hard departure is timestamped") >= grace);
    // A finished peer is `DeadPeer`, never `Crash`.
    assert_eq!(finished.0, FailureCause::DeadPeer { peer: 0, tag: 7 });
    assert_eq!(finished.1, Some(Departure::Finished));
    assert_eq!(finished.3, 3, "everyone but the prober had departed");
    assert_eq!(report.metrics[3].crashes_detected, 2);
    // The lingerer left when the prober — the p-th departure — did, not at
    // its `recv_timeout`.
    assert!(t0.elapsed() < Duration::from_secs(10), "linger overstayed");
}

#[test]
fn busy_rank_is_never_suspected_however_small_the_threshold() {
    // Regression: the old detector compared wall-clock heartbeat
    // timestamps, so a rank that was merely busy (or descheduled in an
    // oversubscribed world) for longer than `suspect_after` was falsely
    // declared crashed. Suspicion now requires a scheduler *departure*; a
    // live rank that never parks and never beats anything must still be
    // waited for, even under an absurdly small threshold.
    let mut s = spec(2, 2);
    s.faults = FaultPlan {
        armed: true,
        ..FaultPlan::default()
    };
    s.retry = fast_retry();
    s.suspect_after = Some(Duration::from_millis(1));
    let report = run(&s, |ctx| {
        if ctx.rank() == 0 {
            // Busy, silent, live — for 50x the suspicion threshold.
            std::thread::sleep(Duration::from_millis(50));
            ctx.send(1, 7, Parcel::one(Item::Plain(ctx.my_block(16))));
            0
        } else {
            ctx.recv(0, 7).payload_len()
        }
    });
    assert_eq!(report.outputs, vec![0, 16]);
    assert_eq!(
        report.metrics[1].crashes_detected, 0,
        "live busy rank was falsely suspected"
    );
}

#[test]
fn crash_under_plain_run_surfaces_a_typed_error() {
    // Regression: `run` on a crash-injected world used to die on an opaque
    // `expect("rank produced no output")`-style panic; it must raise a
    // typed `CollectiveError` that `try_run` surfaces as a value.
    let s = crash_world(Crash::before(0, 0));
    let err = unwrap_err(
        try_run(&s, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, Parcel::one(Item::Plain(ctx.my_block(16))));
                0
            } else {
                ctx.try_recv(0, 7).map(|p| p.payload_len()).unwrap_or(0)
            }
        }),
        "plain run of a crashed world must fail",
    );
    assert_eq!(err.cause, FailureCause::Crash { rank: 0 });
    assert_eq!(err.phase, "collect");
}

#[test]
fn rank_seeds_are_distinct_and_never_the_raw_world_seed() {
    // Regression: `seed ^ (rank * FNV)` is the identity for rank 0, so
    // rank 0's nonce RNG was seeded with the raw world seed.
    for seed in [0u64, 1, 0xFA57, u64::MAX] {
        let mut seen = std::collections::HashSet::new();
        for rank in 0..1024 {
            let mixed = mix_rank_seed(seed, rank);
            assert_ne!(mixed, seed, "rank {rank} reuses the world seed {seed}");
            assert!(seen.insert(mixed), "rank {rank} collides at seed {seed}");
        }
    }
}

#[test]
fn single_worker_world_interleaves_cooperatively() {
    // Deterministic interleaving: with a one-permit gate, only one rank
    // runs at a time and every park/yield hands the permit over. A full
    // ring exchange must still complete (no lost wakeups, no permit leaks).
    let mut s = spec(4, 2);
    s.workers = Some(1);
    let report = run(&s, |ctx| {
        let p = ctx.p();
        let me = ctx.rank();
        let mut seen = 0usize;
        for round in 0..p - 1 {
            ctx.yield_now();
            let parcel = ctx.sendrecv(
                (me + 1) % p,
                (me + p - 1) % p,
                round as u64,
                Parcel::one(Item::Plain(ctx.my_block(8))),
            );
            seen += parcel.payload_len();
        }
        seen
    });
    assert_eq!(report.outputs, vec![24; 4]);
}

#[test]
fn same_node_crash_unblocks_shared_memory_waiters() {
    // Ranks 0 and 1 share node 0. Rank 0 dies before depositing; rank 1 is
    // blocked in a shared-memory fetch and must fail over via the segment's
    // crash abort rather than deadlock.
    let mut s = spec(4, 2);
    s.faults = FaultPlan {
        crashes: vec![Crash::before(0, 0)],
        ..FaultPlan::default()
    };
    s.retry = fast_retry();
    let report = run_crashable(&s, |ctx| {
        match ctx.rank() {
            // The doomed rank: sending to rank 2 trips the crash.
            0 => {
                ctx.send(2, 9, Parcel::one(Item::Plain(ctx.my_block(8))));
                None
            }
            // Same-node sibling blocked on rank 0's deposit. The fetch
            // raises the typed failure; catch it the way the recovery
            // engine does, so the world carries on.
            1 => {
                let key = ctx.slot(5, 0);
                Some(
                    typed(|| ctx.shared_fetch_free(key))
                        .map(|_| ())
                        .map_err(|e| {
                            assert_eq!(e.rank, 1);
                            e.cause
                        }),
                )
            }
            // Off-node ranks: blocked on the doomed rank's message.
            _ => Some(ctx.try_recv(0, 9).map(|_| ())),
        }
    });
    assert_eq!(report.crashed, vec![0]);
    let sibling = report.outputs[1].clone().expect("rank 1 output");
    assert_eq!(
        sibling.expect("closure ran on rank 1").unwrap_err(),
        FailureCause::Crash { rank: 0 }
    );
    for rank in 2..4 {
        let got = report.outputs[rank].clone().expect("survivor output");
        assert_eq!(
            got.expect("closure ran on survivor").unwrap_err(),
            FailureCause::Crash { rank: 0 }
        );
    }
}

#[test]
fn aborted_attempt_resolves_peers_blocked_in_their_own_attempts() {
    // Rank 1 abandons its attempt (as if cascading from a crash elsewhere);
    // rank 0, blocked inside its own attempt on rank 1's next message, must
    // resolve through the detector instead of timing out.
    let mut s = crash_world(Crash::before(2, 0)); // arms chaos; rank 2 absent
    s.topology = Topology::new(2, 2, Mapping::Block);
    s.faults = FaultPlan {
        armed: true,
        ..FaultPlan::default()
    };
    let report = run_crashable(&s, |ctx| {
        ctx.begin_attempt();
        if ctx.rank() == 1 {
            ctx.abort_attempt(1); // blame self: the cascade's root is here
            ctx.try_recv(0, 3).map(|_| ()) // read the release signal
        } else {
            let got = ctx.try_recv(1, 2).map(|_| ());
            ctx.abort_attempt(1);
            ctx.send(1, 3, Parcel::one(Item::Plain(ctx.my_block(4))));
            got
        }
    });
    let got = report.outputs[0].clone().expect("rank 0 output");
    // The abandonment carries its blame, so rank 0's cascaded failure is
    // attributed to the rank the aborter named.
    assert_eq!(got.unwrap_err(), FailureCause::Crash { rank: 1 });
    assert!(report.crashed.is_empty(), "no rank actually died");
}

#[test]
fn stale_aborts_from_an_earlier_attempt_do_not_leak_into_the_next() {
    // Rank 1 abandons attempt 1; both ranks then run attempt 2 cleanly.
    // Rank 0's attempt-2 receive must wait for rank 1's real message
    // instead of resolving through rank 1's stale attempt-1 abort.
    let mut s = spec(2, 2);
    s.faults = FaultPlan {
        armed: true,
        ..FaultPlan::default()
    };
    s.retry = fast_retry();
    let report = run(&s, |ctx| {
        ctx.begin_attempt();
        if ctx.rank() == 1 {
            ctx.abort_attempt(1);
        } else {
            let got = ctx.try_recv(1, 2);
            ctx.abort_attempt(1);
            assert!(got.is_err(), "attempt-1 receive must cascade");
        }
        // Attempt 2: the stale abort serial (1) is below the new serial
        // (2), so receives block for real data again.
        ctx.begin_attempt();
        let out = if ctx.rank() == 1 {
            ctx.send(0, 5, Parcel::one(Item::Plain(ctx.my_block(4))));
            4
        } else {
            ctx.try_recv(1, 5)
                .expect("live peer, live attempt")
                .payload_len()
        };
        ctx.complete_attempt();
        out
    });
    assert_eq!(report.outputs, vec![4, 4]);
}
