//! The process-wide rank pool as worlds see it: threads are reused across
//! worlds, a reused thread starts its rank clean, a failing world leaves
//! its threads serving, and rank closures may borrow the caller's stack.
//!
//! A test binary of its own because the pool is process-wide and these
//! tests count its threads: no other binary's worlds may share it, and the
//! tests below take `SERIAL` so they do not share it with each other.

use eag_netsim::{profile, Crash, FaultPlan, Mapping, Topology};
use eag_runtime::{
    run, run_crashable, try_run, CollectiveError, DataMode, FailureCause, Item, Parcel, WorldSpec,
};
use std::collections::HashSet;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::thread::{self, ThreadId};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// p = 8 ranks on 2 nodes, real bytes.
fn spec() -> WorldSpec {
    WorldSpec::new(
        Topology::new(8, 2, Mapping::Block),
        profile::unit(),
        DataMode::Real { seed: 1 },
    )
}

/// The threads a world ran its ranks on.
fn threads_of(spec: &WorldSpec) -> HashSet<ThreadId> {
    let ids: HashSet<_> = run(spec, |_| thread::current().id())
        .outputs
        .into_iter()
        .collect();
    assert_eq!(ids.len(), spec.topology.p(), "two ranks shared a thread");
    ids
}

#[test]
fn sequential_worlds_run_on_one_set_of_threads() {
    let _serial = serial();
    let s = spec();
    let mut seen = HashSet::new();
    for _ in 0..50 {
        seen.extend(threads_of(&s));
    }
    assert_eq!(seen.len(), 8, "50 sequential p = 8 worlds");
    assert!(!seen.contains(&thread::current().id()));
}

#[test]
fn concurrent_worlds_grow_the_pool_to_their_peak_only() {
    let _serial = serial();
    // Private gates wide enough that all 16 ranks can hold a permit at
    // once, so the barrier below forces the two first worlds to overlap.
    let mut s = spec();
    s.workers = Some(8);
    let overlap = Barrier::new(16);
    let seen = Mutex::new(HashSet::new());
    thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let first = run(&s, |_| {
                    overlap.wait();
                    thread::current().id()
                });
                seen.lock().unwrap().extend(first.outputs);
                for _ in 0..10 {
                    let ids = threads_of(&s);
                    seen.lock().unwrap().extend(ids);
                }
            });
        }
    });
    // 16 ranks were alive at once, and no more ever are in this binary.
    assert_eq!(seen.into_inner().unwrap().len(), 16);
}

#[test]
fn a_reused_thread_starts_its_rank_with_a_clean_copy_probe() {
    let _serial = serial();
    let s = spec();
    // A ring step through the AEAD: every rank seals, sends, opens.
    let ring = || {
        run(&s, |ctx| {
            let (rank, p) = (ctx.rank(), ctx.p());
            let sealed = ctx.encrypt(ctx.my_block(256));
            ctx.send((rank + 1) % p, 1, Parcel::one(Item::Sealed(sealed)));
            let got = ctx.recv((rank + p - 1) % p, 1);
            ctx.decrypt(got.items[0].clone().into_sealed()).unwrap();
        })
        .metrics
    };
    let before = ring();
    assert!(before
        .iter()
        .all(|m| m.memcpy_bytes > 0 && m.buf_allocs > 0));
    // Same p, so the same threads: each copies 1 MiB and keeps none of it.
    run(&s, |ctx| {
        let block = ctx.my_block(1 << 16);
        for _ in 0..16 {
            std::hint::black_box(block.data.to_vec());
        }
    });
    assert_eq!(ring(), before, "a rank inherited its thread's copy counts");
}

#[test]
fn a_string_panic_is_re_raised_and_the_threads_keep_serving() {
    let _serial = serial();
    let s = spec();
    let threads = threads_of(&s);
    let err = catch_unwind(AssertUnwindSafe(|| {
        run(&s, |ctx| {
            if ctx.rank() == 5 {
                panic!("rank five gave up");
            }
        })
    }))
    .err()
    .expect("the rank's panic must reach the caller");
    assert_eq!(err.downcast_ref::<&str>(), Some(&"rank five gave up"));
    assert_eq!(threads_of(&s), threads);
}

#[test]
fn a_typed_error_wins_over_poisoned_peers_and_the_threads_keep_serving() {
    let _serial = serial();
    let s = spec();
    let threads = threads_of(&s);
    // Every other rank blocks on rank 6, is poisoned by its failure, and
    // unwinds with a string panic — ranks 0–5 before rank 6 in rank order.
    let err = try_run(&s, |ctx| {
        if ctx.rank() == 6 {
            panic_any(CollectiveError {
                rank: 6,
                phase: "test",
                cause: FailureCause::AuthFailure {
                    detail: "forged".into(),
                },
            });
        }
        ctx.recv(6, 1);
    })
    .err()
    .expect("rank 6's error must reach the caller");
    assert_eq!(err.rank, 6);
    assert_eq!(threads_of(&s), threads);
}

#[test]
fn a_hard_crash_is_contained_and_the_threads_keep_serving() {
    let _serial = serial();
    let mut s = spec();
    let threads = threads_of(&s);
    s.faults = FaultPlan {
        crashes: vec![Crash::before(3, 0).hard()],
        ..FaultPlan::default()
    };
    let report = run_crashable(&s, |ctx| {
        if ctx.rank() == 3 {
            ctx.send(7, 1, Parcel::one(Item::Plain(ctx.my_block(16))));
        }
        ctx.rank()
    });
    assert_eq!(report.crashed, vec![3]);
    assert_eq!(report.survivor_outputs().count(), 7);
    assert_eq!(threads_of(&spec()), threads);
}

#[test]
fn rank_closures_borrow_the_callers_stack() {
    let _serial = serial();
    let squares: Vec<usize> = (0..8).map(|r| r * r).collect();
    let label = String::from("rank");
    let order = Mutex::new(Vec::new());
    let report = run(&spec(), |ctx| {
        order.lock().unwrap().push(ctx.rank());
        format!("{label} {}: {}", ctx.rank(), squares[ctx.rank()])
    });
    assert_eq!(report.outputs[7], "rank 7: 49");
    let mut order = order.into_inner().unwrap();
    order.sort_unstable();
    assert_eq!(order, (0..8).collect::<Vec<_>>());
}
