//! Per-layer probes: one number per layer operation, measured in isolation
//! through the layer's public items at the workload's own p, m and suite.
//!
//! Two things keep a probe's number close to what the same operation costs
//! inside the workload:
//!
//! - Byte-touching probes (seal, open, counted copy, checksum) walk a ring of
//!   p² frames of m bytes — every block every rank holds after one
//!   all-gather, the workload's own working set — so they run as cold as the
//!   workload does (64 MiB on `ag_large`, far beyond L2) and as hot as it
//!   does (64 KiB on `ag_small`).
//! - Probes that need rank threads (park/wake, frame ping-pong) run `W`
//!   pairs at once on a gate of width `W`, so every core stays busy as in a
//!   p ≫ W world; a lone pair would mostly measure cores leaving their idle
//!   state. They report wall time per operation *and* the CPU all threads
//!   spent per operation: the wake-up latency in the wall figure overlaps
//!   other ranks' work, and only the CPU figure adds up against
//!   `cpu_ms_per_op`.

use crate::engine::Cell;
use crate::stats::median_f64;
use crate::sys::{process_cpu_s, thread_cpu_ns};
use crate::workloads::armed_plan;
use eag_crypto::probe::probe_throughput_suite;
use eag_crypto::{
    open_frame_in_place, seal_message_into, seal_segments_into, Key, NonceSource, SessionKeychain,
    WIRE_OVERHEAD,
};
use eag_netsim::{profile, FaultPlan, Mapping, Topology};
use eag_rope::Rope;
use eag_runtime::sched::Scheduler;
use eag_runtime::{
    pattern_block, run, Chunk, Data, DataMode, Item, NodeShared, Parcel, Sealed, SessionConfig,
    SessionManager, WorldSpec,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall and CPU cost of one operation of a multi-thread probe, ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pair {
    pub wall_ns: f64,
    /// CPU of all threads involved; equals `wall_ns` when the kernel keeps
    /// no per-thread scheduler statistics.
    pub cpu_ns: f64,
}

#[derive(Debug, Default)]
pub struct Probes {
    pub seal_ns_per_byte: f64,
    pub open_ns_per_byte: f64,
    pub seal_segments_ns_per_byte: f64,
    pub seal_ns_per_call_16b: f64,
    pub open_ns_per_call_16b: f64,
    pub kdf_derive_ns: f64,
    pub rope_append_ns: f64,
    pub rope_slice_ns: f64,
    pub rope_into_vec_ns_per_byte: f64,
    pub payload_concat_ns: f64,
    pub payload_checksum_ns_per_byte: f64,
    pub payload_pattern_block_ns_per_byte: f64,
    /// One send → park → wake → reply round trip between two ranks.
    pub park_wake: Pair,
    pub permit_handoff_ns: f64,
    pub yield_ns: f64,
    pub deposit_fetch_ns: f64,
    pub barrier_ns: f64,
    /// Per frame (half a ping-pong round trip) through `ProcCtx`.
    pub frame_intra: Pair,
    pub frame_inter: Pair,
    pub frame_inter_armed: Pair,
    pub encrypt_ns_per_call: f64,
    pub decrypt_ns_per_call: f64,
    pub spawn_join_us: f64,
    pub spawn_join_cpu_us: f64,
    pub admit_ns: f64,
    pub fault_decide_ns: f64,
}

/// Median over five batches of the mean time of one call of `f`, ns.
fn ns_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    // Size a batch: grow the iteration count until it is long enough to time.
    let mut n = 1u64;
    let one_ns = loop {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        let e = t.elapsed();
        if e >= Duration::from_micros(50) || n >= 1 << 20 {
            break e.as_nanos() as f64 / n as f64;
        }
        n *= 4;
    };
    let iters = ((budget.as_nanos() as f64 / 5.0 / one_ns.max(0.1)) as u64).clamp(1, 1 << 24);
    let mut means: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median_f64(&mut means)
}

/// Runs a multi-thread probe: a short run sizes the iteration count, then
/// three runs share `budget` and the median one is the measurement.
/// `run_iters(n)` returns the wall time of n operations and the CPU ns its
/// threads spent on them, if known.
fn threaded(budget: Duration, run_iters: impl Fn(u64) -> (Duration, Option<u64>)) -> Pair {
    const SIZING: u64 = 64;
    const RUNS: usize = 3;
    let (sized, _) = run_iters(SIZING);
    let per_op = (sized.as_nanos() as f64 / SIZING as f64).max(1.0);
    let iters = ((budget.as_nanos() as f64 / RUNS as f64 / per_op) as u64).clamp(SIZING, 1 << 22);
    let mut runs: Vec<Pair> = (0..RUNS)
        .map(|_| {
            let (wall, cpu) = run_iters(iters);
            let wall_ns = wall.as_nanos() as f64 / iters as f64;
            Pair {
                wall_ns,
                cpu_ns: cpu.map_or(wall_ns, |c| c as f64 / iters as f64),
            }
        })
        .collect();
    // The median run by CPU: thread placement differs from run to run.
    runs.sort_by(|a, b| a.cpu_ns.total_cmp(&b.cpu_ns));
    runs[RUNS / 2]
}

/// CPU ns the calling thread spends inside `f`, if the kernel tells.
fn thread_cpu_of<R>(f: impl FnOnce() -> R) -> (R, Option<u64>) {
    let before = thread_cpu_ns();
    let r = f();
    let cpu = before.and_then(|b| thread_cpu_ns().map(|a| a.saturating_sub(b)));
    (r, cpu)
}

pub fn run_all(cell: &Cell, budget: Duration) -> Result<Probes, String> {
    let mut out = Probes::default();
    working_set(cell, budget, &mut out);
    crypto_calls(cell, budget, &mut out);
    rope_and_payload(cell, budget, &mut out);
    sched_and_shared(cell.width, budget, &mut out);
    world(cell, budget, &mut out)?;
    out.admit_ns = {
        let mut cfg = SessionConfig::new(Key::from_bytes([0x11; 16]));
        cfg.max_live = cell.width;
        cfg.gate_width = Some(cell.width);
        let mgr = SessionManager::new(cfg);
        ns_per_call(budget, || {
            black_box(mgr.admit(1).is_ok());
        })
    };
    out.fault_decide_ns = {
        let plan: FaultPlan = armed_plan(cell.seed);
        let mut seq = 0u64;
        ns_per_call(budget, || {
            seq += 1;
            black_box(plan.decide(0, 5, 1 << 20, seq, 0));
        })
    };
    Ok(out)
}

/// Mean ns per element of sweeps over `ring`, for about `budget`: at least
/// one full sweep, so every element is touched cold.
fn ns_per_element<T>(budget: Duration, ring: &mut [T], mut f: impl FnMut(&mut T)) -> f64 {
    let (t, mut sweeps) = (Instant::now(), 0u32);
    while sweeps == 0 || t.elapsed() < budget {
        ring.iter_mut().for_each(&mut f);
        sweeps += 1;
    }
    t.elapsed().as_nanos() as f64 / (sweeps as usize * ring.len()) as f64
}

/// Seal, open, counted copy and checksum over the workload's working set.
fn working_set(cell: &Cell, budget: Duration, out: &mut Probes) {
    let (m, frames) = (cell.m, cell.p * cell.p);
    let cipher = cell.suite.aead_for_key(&Key::from_bytes([0x5A; 16]));
    let mut nonces = NonceSource::seeded(0x5E6);
    let plain = vec![0xC3u8; m];
    let mut ring: Vec<Vec<u8>> = vec![Vec::new(); frames];

    // Alternate sealing sweeps (a warm plaintext into a cold frame, as a
    // rank seals the block it just produced) and opening sweeps (a cold frame
    // in place, as it arrives), so every open finds a valid frame. The first
    // sealing sweep allocates the frames and is not timed.
    for frame in &mut ring {
        seal_message_into(&*cipher, &mut nonces, b"aad", &plain, frame);
    }
    let (mut seal_ns, mut open_ns, mut rounds) = (0.0, 0.0, 0u32);
    let t = Instant::now();
    while rounds == 0 || t.elapsed() < 2 * budget {
        seal_ns += ns_per_element(Duration::ZERO, &mut ring, |frame| {
            seal_message_into(&*cipher, &mut nonces, b"aad", &plain, frame);
        });
        open_ns += ns_per_element(Duration::ZERO, &mut ring, |frame| {
            let opened = open_frame_in_place(&*cipher, b"aad", frame);
            debug_assert!(opened.is_ok());
            black_box(opened.is_ok());
        });
        rounds += 1;
    }
    out.seal_ns_per_byte = seal_ns / rounds as f64 / m as f64;
    out.open_ns_per_byte = open_ns / rounds as f64 / m as f64;

    // The shape `ProcCtx::encrypt` uses: gather a segmented plaintext into a
    // fresh frame, then seal in place.
    let segments: Vec<&[u8]> = plain.chunks(m.div_ceil(4).max(1)).collect();
    out.seal_segments_ns_per_byte = ns_per_call(budget, || {
        let mut wire = Vec::with_capacity(m + WIRE_OVERHEAD);
        seal_segments_into(
            &*cipher,
            &mut nonces,
            b"aad",
            segments.iter().copied(),
            &mut wire,
        );
        black_box(wire);
    }) / m as f64;

    // The same frames as wire parcels. A rope with a second owner cannot hand
    // its buffer back: `into_vec` is then the data plane's counted copy.
    let mut parcels: Vec<Parcel> = ring
        .into_iter()
        .map(|frame| {
            Parcel::one(Item::Sealed(Sealed {
                origins: vec![0],
                block_len: m,
                plain_len: m,
                data: Data::Real(frame.into()),
            }))
        })
        .collect();
    let wire_len = (m + WIRE_OVERHEAD) as f64;
    out.payload_checksum_ns_per_byte = ns_per_element(budget, &mut parcels, |parcel| {
        black_box(parcel.checksum());
    }) / wire_len;
    out.rope_into_vec_ns_per_byte = ns_per_element(budget, &mut parcels, |parcel| {
        let Item::Sealed(sealed) = &parcel.items[0] else {
            unreachable!("the ring holds sealed items");
        };
        black_box(sealed.data.rope().clone().into_vec());
    }) / wire_len;
}

/// Per-call costs: a 16-byte seal and open (the AEAD's fixed cost) and one
/// session-key derivation.
fn crypto_calls(cell: &Cell, budget: Duration, out: &mut Probes) {
    let at_16 = probe_throughput_suite(cell.suite, &[16], budget.as_secs_f64() / 2.0)[0];
    out.seal_ns_per_call_16b = 16e3 / at_16.seal_mb_per_s;
    out.open_ns_per_call_16b = 16e3 / at_16.open_mb_per_s;

    let chain = SessionKeychain::new(&Key::from_bytes([7; 16]));
    let mut session = 0u64;
    out.kdf_derive_ns = ns_per_call(budget, || {
        session += 1;
        black_box(chain.derive(1, session, 0));
    });
}

fn rope_and_payload(cell: &Cell, budget: Duration, out: &mut Probes) {
    let (p, m) = (cell.p, cell.m);
    let piece: Rope = vec![1u8; 64].into();
    let mut acc = Rope::new();
    out.rope_append_ns = ns_per_call(budget, || {
        if acc.segment_count() >= 1024 {
            acc = Rope::new();
        }
        acc.append(piece.clone());
    });

    let mut gathered = Rope::new();
    for r in 0..p {
        gathered.append(vec![r as u8; m].into());
    }
    let mut i = 0usize;
    out.rope_slice_ns = ns_per_call(budget, || {
        i = (i + 1) % p;
        black_box(gathered.slice(i * m..(i + 1) * m));
    });

    let blocks: Vec<Chunk> = (0..p)
        .map(|r| Chunk::single(r, Data::Real(vec![r as u8; m].into())))
        .collect();
    out.payload_concat_ns = ns_per_call(budget, || {
        black_box(Chunk::concat(&blocks));
    });

    let mut origin = 0usize;
    out.payload_pattern_block_ns_per_byte = ns_per_call(budget, || {
        origin = (origin + 1) % p;
        black_box(pattern_block(cell.seed, origin, m));
    }) / m as f64;
}

/// Blocks `rank` until its mailbox holds something, the way a receive does.
fn wait_for_mail(s: &Scheduler<u32>, rank: usize, buf: &mut Vec<u32>) {
    loop {
        let gen = s.generation();
        s.drain_into(rank, buf);
        if !buf.is_empty() {
            buf.clear();
            return;
        }
        s.park(rank, None, gen);
    }
}

fn sched_and_shared(width: usize, budget: Duration, out: &mut Probes) {
    // `width` pairs of ranks bounce a message on a gate of `width` permits.
    // Ranks 2k and 2k+1 are a pair; the even one keeps the time.
    out.park_wake = threaded(budget, |iters| {
        let s: Scheduler<u32> = Scheduler::new(2 * width, width);
        let bounce = |rank: usize| {
            s.enter();
            let (wall, cpu) = thread_cpu_of(|| {
                let mut buf = Vec::new();
                let t = Instant::now();
                for _ in 0..iters {
                    if rank.is_multiple_of(2) {
                        s.send(rank + 1, 1);
                        wait_for_mail(&s, rank, &mut buf);
                    } else {
                        wait_for_mail(&s, rank, &mut buf);
                        s.send(rank - 1, 1);
                    }
                }
                t.elapsed()
            });
            s.exit();
            (wall, cpu)
        };
        let per_rank: Vec<(Duration, Option<u64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2 * width)
                .map(|r| scope.spawn(move || bounce(r)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe rank panicked"))
                .collect()
        });
        let cpu = per_rank.iter().map(|(_, c)| *c).sum::<Option<u64>>();
        (per_rank[0].0, cpu.map(|c| c / width as u64))
    });

    // Two ranks on a one-permit gate: every yield finds a waiter, returns
    // the permit, wakes the waiter and queues for the permit again.
    out.permit_handoff_ns = threaded(budget, |iters| {
        let s: Scheduler<u32> = Scheduler::new(2, 1);
        let yields = |rank: usize| {
            s.enter();
            for _ in 0..iters {
                s.yield_now(rank);
            }
            s.exit();
        };
        let t = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| yields(1));
            yields(0);
        });
        (t.elapsed() / 2, None)
    })
    .wall_ns;

    let alone: Scheduler<u32> = Scheduler::new(1, 2);
    alone.enter();
    out.yield_ns = ns_per_call(budget, || alone.yield_now(0));
    alone.exit();

    let segment = NodeShared::new(1);
    let item = Item::Plain(Chunk::single(0, Data::Real(vec![1u8; 64].into())));
    out.deposit_fetch_ns = ns_per_call(budget, || {
        segment.deposit((1, 0), item.clone(), 0.0, 1);
        black_box(segment.fetch((1, 0)).is_ok());
    });

    out.barrier_ns = threaded(budget, |iters| {
        let segment = NodeShared::new(2);
        let rounds = || {
            for _ in 0..iters {
                black_box(segment.barrier(0.0, 0.0).is_ok());
            }
        };
        let t = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(rounds);
            rounds();
        });
        (t.elapsed(), None)
    })
    .wall_ns;
}

/// A world of `width` pairs of ranks. With two nodes, block mapping puts
/// ranks `0..width` on node 0 and the rest on node 1, so rank `r` and rank
/// `r + width` are an inter-node pair; with one node they are an intra-node
/// pair.
fn pairs_spec(cell: &Cell, nodes: usize) -> WorldSpec {
    let mut spec = WorldSpec::new(
        Topology::new(2 * cell.width, nodes, Mapping::Block),
        profile::free(),
        DataMode::Real { seed: cell.seed },
    );
    spec.suite = cell.suite;
    spec.workers = Some(cell.width);
    spec
}

/// Ping-pong of one m-byte item between the ranks of each pair; cost per
/// frame.
fn frame_cost(cell: &Cell, budget: Duration, inter: bool, armed: bool) -> Pair {
    const TAG: u64 = 7;
    let mut spec = pairs_spec(cell, if inter { 2 } else { 1 });
    spec.faults.armed = armed;
    let (m, width) = (cell.m, cell.width);
    let round_trips = threaded(budget, |iters| {
        let report = run(&spec, |ctx| {
            let me = ctx.rank();
            let (serves, peer) = (me < width, (me + width) % (2 * width));
            // Inter-node frames carry ciphertext, intra-node frames plaintext.
            let item = if inter {
                let block = ctx.my_block(m);
                Item::Sealed(ctx.encrypt(block))
            } else {
                Item::Plain(ctx.my_block(m))
            };
            thread_cpu_of(|| {
                let t = Instant::now();
                for _ in 0..iters {
                    if serves {
                        ctx.send(peer, TAG, Parcel::one(item.clone()));
                        black_box(ctx.recv(peer, TAG));
                    } else {
                        black_box(ctx.recv(peer, TAG));
                        ctx.send(peer, TAG, Parcel::one(item.clone()));
                    }
                }
                t.elapsed()
            })
        });
        let cpu = report.outputs.iter().map(|(_, c)| *c).sum::<Option<u64>>();
        (report.outputs[0].0, cpu.map(|c| c / width as u64))
    });
    Pair {
        wall_ns: round_trips.wall_ns / 2.0,
        cpu_ns: round_trips.cpu_ns / 2.0,
    }
}

fn world(cell: &Cell, budget: Duration, out: &mut Probes) -> Result<(), String> {
    out.frame_intra = frame_cost(cell, budget, false, false);
    out.frame_inter = frame_cost(cell, budget, true, false);
    out.frame_inter_armed = frame_cost(cell, budget, true, true);

    let m = cell.m;
    let report = run(&pairs_spec(cell, 2), |ctx| {
        if ctx.rank() != 0 {
            return (0.0, 0.0);
        }
        let block = ctx.my_block(m);
        let (mut enc, mut dec, mut n) = (Duration::ZERO, Duration::ZERO, 0u32);
        let t = Instant::now();
        while t.elapsed() < budget || n == 0 {
            let a = Instant::now();
            let sealed = ctx.encrypt(block.clone());
            let b = Instant::now();
            black_box(ctx.decrypt(sealed));
            dec += b.elapsed();
            enc += b - a;
            n += 1;
        }
        (
            enc.as_nanos() as f64 / n as f64,
            dec.as_nanos() as f64 / n as f64,
        )
    });
    (out.encrypt_ns_per_call, out.decrypt_ns_per_call) = report.outputs[0];

    // Spawn and join of the workload's own world. Rank threads exit with
    // their world, so only the process-wide counter still knows their CPU;
    // it ticks at 10 ms, hence the longer loop.
    let spec = cell.spec();
    let long = budget * 8;
    let cpu_before = process_cpu_s()?;
    let (t, mut n) = (Instant::now(), 0u32);
    while t.elapsed() < long || n == 0 {
        run(&spec, |ctx| black_box(ctx.rank()));
        n += 1;
    }
    let wall = t.elapsed();
    out.spawn_join_us = wall.as_secs_f64() * 1e6 / n as f64;
    out.spawn_join_cpu_us = (process_cpu_s()? - cpu_before) * 1e6 / n as f64;
    Ok(())
}
