//! Wall-clock benchmark of the encrypted all-gather stack.
//!
//! One invocation runs one workload in one process:
//!
//! ```text
//! eag-wallbench --workload ag_small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! runs the per-layer probes, a traced copy of the workload and the model,
//! and reports the per-layer ledger. Either way the run prints a header,
//! every metric by name with its unit, and the result object on the last
//! line. `benchmarks/run.sh` builds this program and is the one command.

mod catalog;
mod engine;
mod ledger;
mod probes;
mod spans;
mod stats;
mod sys;
mod workloads;

use catalog::Better::{self, Higher, Lower};
use catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use engine::{PassStat, Tally};
use ledger::Ledger;
use probes::Probes;
use spans::TraceSink;
use stats::{better_quartile, iqr_over_median, percentile};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::Workload;

/// A timed pass lasts one in this many of the run's seconds.
const PASSES: usize = 15;
/// Of a traced run's passes, this many in ten run untraced first, as the
/// reference the traced ones are compared with.
const REFERENCE_TENTHS: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: eag-wallbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--out-dir DIR] [--smoke]\n       eag-wallbench --list-workloads | --list-metrics",
        names.join("|")
    )
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmarks/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            "--list-workloads" => {
                for w in WORKLOADS {
                    println!("{}\t{}", w.name, w.why);
                }
                return Ok(None);
            }
            "--list-metrics" => {
                for (kind, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
                    for d in defs {
                        let bound = d.bound.map_or("-".to_string(), |b| b.to_string());
                        println!(
                            "{kind}\t{}\t{}\t{}\t{bound}",
                            d.name,
                            d.unit,
                            d.better.as_str()
                        );
                    }
                }
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if catalog::workload(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(Some(args))
}

/// The dispatch each cipher suite takes on this CPU, asked of the ciphers.
fn suite_dispatch() -> String {
    use eag_crypto::aes::{Aes, Backend};
    use eag_crypto::ghash::{GHash, MulBackend};
    use eag_crypto::{AesGcmSiv, ChaCha20Poly1305, Key};
    let key = Key::from_bytes([0; 16]);
    let aes = Aes::new(key.as_bytes()).backend();
    let mul = GHash::new(&[1; 16]).backend();
    let fused = aes == Backend::AesNi && mul == MulBackend::Pclmul;
    format!(
        "aes-128-gcm={aes:?}+{mul:?}{} aes-128-gcm-siv={} chacha20-poly1305={:?}",
        if fused { "(fused)" } else { "" },
        if AesGcmSiv::new(&key).is_soft() {
            "Soft"
        } else {
            "AesNi+Pclmul"
        },
        ChaCha20Poly1305::new(&key).backend(),
    )
}

fn print_header(args: &Args, wl: &Workload, nproc: usize, passes: usize) {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let h = |k: &str, v: String| println!("HEADER {k}: {v}");
    h(
        "workload",
        format!(
            "{} — {}",
            wl.name,
            catalog::workload(wl.name).map_or("", |w| w.why)
        ),
    );
    h("git_commit", env("EAG_BENCH_GIT"));
    h("rustc", env("EAG_BENCH_RUSTC"));
    h("nproc", nproc.to_string());
    h("gate_width_W", wl.cell.width.to_string());
    h(
        "cpu_flags",
        sys::cpu_flags(&["aes", "pclmulqdq", "avx2", "vaes"]).join(" "),
    );
    h("suite_dispatch", suite_dispatch());
    h(
        "cell",
        format!(
            "p={} N={} m={}B suite={} mix=[{}]",
            wl.cell.p,
            wl.cell.nodes,
            wl.cell.m,
            wl.cell.suite,
            wl.cell.labels().join(", ")
        ),
    );
    h("seed", args.seed.to_string());
    h("trace", (args.trace as u8).to_string());
    h("seconds", args.seconds.to_string());
    h(
        "passes",
        format!(
            "{SETUPS} set-ups, then passes of {:.2} s until {} s have gone by",
            args.seconds / passes as f64,
            args.seconds
        ),
    );
    if args.smoke {
        h(
            "smoke",
            "tiny op counts: numbers are not measurements".into(),
        );
    }
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Median of pooled ns samples, in µs.
fn median_us(samples: Vec<u64>) -> f64 {
    percentile(&sorted(samples), 0.5) / 1e3
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) && !args.smoke {
        eprintln!(
            "refusing to measure a debug build: build with --release (benchmarks/run.sh does), \
             or pass --smoke to exercise the harness only"
        );
        return ExitCode::from(2);
    }
    println!(
        "HEADER malloc: {}",
        if sys::keep_freed_memory() {
            "keeps freed memory (M_MMAP_MAX 0, M_TRIM_THRESHOLD max)"
        } else {
            "allocator defaults (no glibc mallopt)"
        }
    );
    // Injected crashes and typed failures unwind through panic machinery by
    // design; keep their backtraces out of the output.
    eag_runtime::quiet_expected_panics();
    match run(&args, epoch) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("eag-wallbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args, epoch: Instant) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let width = nproc.min(4);
    let ops_percent = if args.smoke { 4 } else { 100 };
    let wl = Workload::build(&args.workload, args.seed, width, ops_percent, epoch)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let passes = if args.smoke { 2 } else { PASSES };
    print_header(args, &wl, nproc, passes);

    // Set-up, several times over: input generation, world spawn, and a
    // warm-up pass in which every op is byte-verified.
    let mut warm = Tally::default();
    let setups: Vec<f64> = (0..if args.smoke { 1 } else { SETUPS })
        .map(|_| {
            let t = Instant::now();
            wl.warm_up(&mut warm);
            t.elapsed().as_secs_f64()
        })
        .collect();
    println!("INFO set-ups: {setups:.3?} s");
    let setup_s = better_quartile(setups, Lower);

    if args.trace {
        layered(args, &wl, warm, passes)
    } else {
        end_to_end(args, &wl, warm, setup_s, passes)
    }
}

/// Runs passes of about `pass_s` seconds until `total_s` have gone by (at
/// least two). A pass finishes the world it is in and so overshoots; bounding
/// the total rather than the count keeps a run's length independent of how
/// long a world takes on the box at hand.
fn timed_passes(
    wl: &Workload,
    total_s: f64,
    pass_s: f64,
    tally: &mut Tally,
    mut sink: Option<&mut TraceSink>,
) {
    let start = Instant::now();
    while tally.passes.len() < 2 || start.elapsed().as_secs_f64() < total_s {
        wl.pass(pass_s, sink.is_some(), tally, sink.as_deref_mut());
    }
}

/// The better quartile over the passes of one per-pass figure.
fn over_passes(tally: &Tally, better: Better, f: impl Fn(&PassStat) -> f64) -> f64 {
    better_quartile(tally.passes.iter().map(f).collect(), better)
}

fn run_spread(tally: &Tally) -> f64 {
    iqr_over_median(&tally.passes.iter().map(|p| p.p50_us).collect::<Vec<_>>())
}

fn end_to_end(
    args: &Args,
    wl: &Workload,
    warm: Tally,
    setup_s: f64,
    passes: usize,
) -> Result<(), String> {
    let mut tally = Tally::default();
    timed_passes(
        wl,
        args.seconds,
        args.seconds / passes as f64,
        &mut tally,
        None,
    );
    let (attempted, failed) = (tally.ops + warm.ops, tally.failed + warm.failed);

    let mut out = Ledger::new(END_TO_END);
    out.set("setup_s", setup_s);
    out.set(
        "op_latency_us_p50",
        over_passes(&tally, Lower, |p| p.p50_us),
    );
    out.set(
        "op_latency_us_p95",
        over_passes(&tally, Lower, |p| p.p95_us),
    );
    out.set("ops_per_s", over_passes(&tally, Higher, |p| p.ops_per_s));
    out.set(
        "cpu_ms_per_op",
        over_passes(&tally, Lower, |p| p.cpu_ms_per_op),
    );
    out.set("peak_rss_MB", sys::peak_rss_mb()?);
    out.set("ok_ops_share", 1.0 - failed as f64 / attempted as f64);

    for (i, p) in tally.passes.iter().enumerate() {
        println!(
            "INFO pass {i}: p50 {:.1} us, p95 {:.1} us, {:.2} ops/s, {:.4} cpu ms/op",
            p.p50_us, p.p95_us, p.ops_per_s, p.cpu_ms_per_op
        );
    }
    let spread = run_spread(&tally);
    let p50_bound = END_TO_END
        .iter()
        .find(|d| d.name == "op_latency_us_p50")
        .and_then(|d| d.bound)
        .unwrap_or(0.0);
    println!(
        "INFO samples: {} latency samples over {} ops in {} passes",
        tally.lat_ns.len(),
        tally.ops,
        tally.passes.len()
    );
    println!(
        "INFO core.run_spread: {spread:.4} (IQR of the per-pass medians over their median){}",
        if spread > p50_bound {
            " — unresolved: wider than the p50 bound"
        } else {
            ""
        }
    );
    out.print(wl.name, failed == 0, attempted, failed);
    Ok(())
}

fn layered(args: &Args, wl: &Workload, warm: Tally, passes: usize) -> Result<(), String> {
    let probe_budget = Duration::from_secs_f64(if args.smoke {
        0.001
    } else {
        args.seconds * 0.004
    });
    let probes = probes::run_all(&wl.cell, probe_budget)?;

    // Reference passes with tracing off, then traced passes: the gap
    // between their medians is what tracing costs.
    let pass_s = args.seconds * 0.8 / passes as f64;
    let reference_s = pass_s * (passes * REFERENCE_TENTHS / 10) as f64;
    let mut reference = Tally::default();
    timed_passes(wl, reference_s, pass_s, &mut reference, None);
    let cpu_ns_per_op = over_passes(&reference, Lower, |p| p.cpu_ms_per_op) * 1e6;
    let mut traced = Tally::default();
    let mut sink = TraceSink::default();
    let traced_s = args.seconds * 0.8 - reference_s;
    timed_passes(wl, traced_s, pass_s, &mut traced, Some(&mut sink));
    let plaintext_on_wire = wl.plaintext_on_wire(&mut traced);
    let model_round_us = wl.model_round_us();

    let ref_p50_us = over_passes(&reference, Lower, |p| p.p50_us);
    let p50_us = over_passes(&traced, Lower, |p| p.p50_us);
    let lat = sorted(std::mem::take(&mut traced.lat_ns));
    let ops = traced.ops.max(1) as f64;
    let per_op = |total: u64| total as f64 / traced.counted_ops.max(1) as f64;
    let c = traced.counts;

    let mut out = Ledger::new(PER_LAYER);
    set_probe_metrics(&mut out, &probes);

    let frames = c.comm_rounds;
    out.set("world.frames_per_op", per_op(frames));
    out.set("world.wire_bytes_per_op", per_op(c.bytes_sent));
    out.set("world.inter_bytes_per_op", per_op(c.inter_bytes_sent));
    out.set("world.enc_calls_per_op", per_op(c.enc_rounds));
    out.set("world.enc_bytes_per_op", per_op(c.enc_bytes));
    out.set("world.dec_calls_per_op", per_op(c.dec_rounds));
    out.set("world.dec_bytes_per_op", per_op(c.dec_bytes));
    out.set("world.memcpy_bytes_per_op", per_op(c.memcpy_bytes));
    out.set("world.buf_allocs_per_op", per_op(c.buf_allocs));
    out.set("world.nacks_per_op", per_op(c.nacks_sent));
    out.set("world.retransmits_per_op", per_op(c.retransmits));
    out.set("world.retransmit_bytes_per_op", per_op(c.retransmit_bytes));
    out.set(
        "world.dup_frames_dropped_per_op",
        per_op(c.dup_frames_dropped),
    );
    out.set("world.faults_detected_per_op", per_op(c.faults_detected));
    let sent = frames + c.retransmits + c.dup_frames_dropped;
    out.set(
        "world.useful_frame_ratio",
        if sent == 0 {
            1.0
        } else {
            frames as f64 / sent as f64
        },
    );
    out.set(
        "world.rank_skew_us_p50",
        median_us(std::mem::take(&mut traced.skew_ns)),
    );

    out.set(
        "session.admit_wait_us_p50",
        median_us(std::mem::take(&mut traced.admit_wait_ns)),
    );
    out.set(
        "session.run_us_p50",
        median_us(std::mem::take(&mut traced.run_ns)),
    );
    out.set("session.shed_per_op", traced.shed as f64 / ops);
    out.set("session.peak_live", traced.peak_live as f64);

    // Member-call medians; the headline ratio is the best encrypted
    // all-gather of the mix over the unencrypted MVAPICH reference.
    let mut call_p50_us = std::collections::BTreeMap::new();
    for (label, calls) in std::mem::take(&mut traced.call_ns) {
        call_p50_us.insert(label, median_us(calls));
    }
    for (name, label) in out.names_under("core.call_us_p50.") {
        out.set(name, call_p50_us.get(label).copied().unwrap_or(0.0));
    }
    let plain_us = median_us(std::mem::take(&mut traced.plain_ns));
    let best_gather_us = wl
        .cell
        .mix
        .iter()
        .filter(|c| {
            matches!(
                c,
                eag_core::Collective::Allgather(_) | eag_core::Collective::Allgatherv(_)
            )
        })
        .filter_map(|c| call_p50_us.get(&engine::label(c)).copied())
        .fold(f64::INFINITY, f64::min);
    out.set("core.plain_call_us_p50", plain_us);
    out.set(
        "core.enc_overhead_ratio",
        if plain_us > 0.0 && best_gather_us.is_finite() {
            best_gather_us / plain_us
        } else {
            0.0
        },
    );
    out.set(
        "core.goodput_MBps",
        traced.out_bytes as f64 / 1e6 / (traced.wall_ns as f64 / 1e9),
    );
    out.set("core.op_latency_us_p99", percentile(&lat, 0.99) / 1e3);
    out.set("core.run_spread", run_spread(&traced));
    out.set(
        "core.recovery_epochs_per_op",
        traced.recovery_epochs as f64 / ops,
    );
    out.set(
        "core.predict_mismatch_count",
        traced.predict_mismatches as f64,
    );
    let (attempted, failed) = (
        warm.ops + reference.ops + traced.ops,
        warm.failed + reference.failed + traced.failed,
    );
    out.set("core.failed_ops_share", failed as f64 / attempted as f64);

    out.set("netsim.model_round_us", model_round_us);
    out.set(
        "netsim.model_error_pct",
        if ref_p50_us > 0.0 {
            (model_round_us / ref_p50_us - 1.0) * 100.0
        } else {
            0.0
        },
    );

    // Attribution: exact per-op counts times probe unit costs, as shares of
    // the CPU one op costs with tracing off. Whatever the named shares do
    // not explain is reported, not hidden. A fault plan — faults or a crash
    // schedule — arms the reliability framing.
    let framed = wl.armed() || matches!(wl.kind, workloads::Kind::Crash { .. });
    let worlds_per_op = match wl.kind {
        workloads::Kind::Collectives { world_ops, .. } => 1.0 / world_ops as f64,
        _ => 1.0,
    };
    let shares = attribute(
        &probes,
        &c,
        traced.counted_ops.max(1) as f64,
        wl.cell.m,
        framed,
        worlds_per_op,
        cpu_ns_per_op,
    );
    out.set("attrib.crypto_share", shares.crypto);
    out.set("attrib.copy_share", shares.copy);
    out.set("attrib.transport_share", shares.transport);
    out.set("attrib.sched_share", shares.sched);
    out.set("attrib.spawn_share", shares.spawn);
    // The benchmark's own byte verification, timed on the ranks that did it.
    let harness = if cpu_ns_per_op > 0.0 {
        traced.verify_ns as f64 / ops / cpu_ns_per_op
    } else {
        0.0
    };
    out.set("attrib.harness_share", harness);
    out.set(
        "attrib.unattributed_share",
        1.0 - shares.crypto
            - shares.copy
            - shares.transport
            - shares.sched
            - shares.spawn
            - harness,
    );
    out.set(
        "trace.overhead_pct",
        if ref_p50_us > 0.0 {
            (p50_us / ref_p50_us - 1.0) * 100.0
        } else {
            0.0
        },
    );

    let trace_path = args.out_dir.join(format!("{}.trace.jsonl", wl.name));
    sink.write(&trace_path, &wl.cell.labels())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!("INFO trace: {}", trace_path.display());
    println!(
        "INFO cpu_ms_per_op (untraced reference passes): {:.4}",
        cpu_ns_per_op / 1e6
    );
    if plaintext_on_wire {
        println!("INFO wire audit: PLAINTEXT FOUND on an inter-node link");
    }
    // `correct` speaks for the outputs and the wire. A `predict` mismatch is
    // a statement about the closed forms, reported as its own metric.
    let correct = failed == 0 && !plaintext_on_wire;
    out.print(wl.name, correct, attempted, failed);
    Ok(())
}

fn set_probe_metrics(out: &mut Ledger, p: &Probes) {
    out.set("crypto.seal_ns_per_byte", p.seal_ns_per_byte);
    out.set("crypto.open_ns_per_byte", p.open_ns_per_byte);
    out.set(
        "crypto.seal_segments_ns_per_byte",
        p.seal_segments_ns_per_byte,
    );
    out.set("crypto.seal_ns_per_call_16B", p.seal_ns_per_call_16b);
    out.set("crypto.open_ns_per_call_16B", p.open_ns_per_call_16b);
    out.set("crypto.kdf_derive_ns", p.kdf_derive_ns);
    out.set("rope.append_ns", p.rope_append_ns);
    out.set("rope.slice_ns", p.rope_slice_ns);
    out.set("rope.into_vec_ns_per_byte", p.rope_into_vec_ns_per_byte);
    out.set("payload.concat_ns", p.payload_concat_ns);
    out.set(
        "payload.checksum_ns_per_byte",
        p.payload_checksum_ns_per_byte,
    );
    out.set(
        "payload.pattern_block_ns_per_byte",
        p.payload_pattern_block_ns_per_byte,
    );
    out.set("sched.park_wake_rtt_ns", p.park_wake.wall_ns);
    out.set("sched.park_wake_cpu_ns", p.park_wake.cpu_ns);
    out.set("sched.permit_handoff_ns", p.permit_handoff_ns);
    out.set("sched.yield_ns", p.yield_ns);
    out.set("shared.deposit_fetch_ns", p.deposit_fetch_ns);
    out.set("shared.barrier_ns", p.barrier_ns);
    out.set("world.sendrecv_intra_ns", p.frame_intra.wall_ns);
    out.set("world.sendrecv_inter_ns", p.frame_inter.wall_ns);
    out.set("world.sendrecv_inter_armed_ns", p.frame_inter_armed.wall_ns);
    out.set("world.frame_cpu_intra_ns", p.frame_intra.cpu_ns);
    out.set("world.frame_cpu_inter_ns", p.frame_inter.cpu_ns);
    out.set("world.frame_cpu_inter_armed_ns", p.frame_inter_armed.cpu_ns);
    out.set("world.encrypt_ns_per_call", p.encrypt_ns_per_call);
    out.set("world.decrypt_ns_per_call", p.decrypt_ns_per_call);
    out.set("world.spawn_join_us", p.spawn_join_us);
    out.set("world.spawn_join_cpu_us", p.spawn_join_cpu_us);
    out.set("session.admit_ns", p.admit_ns);
    out.set("netsim.fault_decide_ns", p.fault_decide_ns);
}

struct Shares {
    crypto: f64,
    copy: f64,
    transport: f64,
    sched: f64,
    spawn: f64,
}

/// First-order CPU attribution of one op.
///
/// - crypto: every seal and open priced `t(16 B)` per call plus the marginal
///   per-byte cost between 16 B and the workload's m;
/// - copy: counted memcpy bytes, less the seal path's gather (already inside
///   the seal probe), at the rope's counted-copy rate;
/// - sched: one park/wake per delivered frame (an upper bound: a receive
///   that finds its mail waiting does not park), plus the shared segment's
///   deposit/fetch per shared-memory copy;
/// - transport: what a frame costs through `ProcCtx` beyond that park/wake,
///   frames split intra/inter by bytes, plus two checksums over every
///   inter-node byte where the reliability framing is armed;
/// - spawn: world spawn and join, amortised over the ops of one world.
fn attribute(
    p: &Probes,
    c: &eag_runtime::Metrics,
    ops: f64,
    m: usize,
    framed: bool,
    worlds_per_op: f64,
    cpu_ns_per_op: f64,
) -> Shares {
    let marginal = |per_byte_at_m: f64, at_16: f64| {
        if m > 16 {
            ((per_byte_at_m * m as f64 - at_16) / (m - 16) as f64).max(0.0)
        } else {
            0.0
        }
    };
    let crypto = c.enc_rounds as f64 * p.seal_ns_per_call_16b
        + c.enc_bytes as f64 * marginal(p.seal_ns_per_byte, p.seal_ns_per_call_16b)
        + c.dec_rounds as f64 * p.open_ns_per_call_16b
        + c.dec_bytes as f64 * marginal(p.open_ns_per_byte, p.open_ns_per_call_16b);
    let copy = c.memcpy_bytes.saturating_sub(c.enc_bytes) as f64 * p.rope_into_vec_ns_per_byte;
    // A frame through `ProcCtx` includes its receiver's park/wake. The two
    // probes are noisy, their sum is what a frame costs; split it so that
    // neither share can go negative.
    let frames = c.comm_rounds as f64;
    let inter_share = if c.bytes_sent == 0 {
        0.0
    } else {
        c.inter_bytes_sent as f64 / c.bytes_sent as f64
    };
    // An unarmed frame moves refcounts, so its cost does not depend on its
    // size; reliability framing adds a checksum over every inter-node byte,
    // stamped by the sender and checked by the receiver.
    let frame_cpu = inter_share * p.frame_inter.cpu_ns + (1.0 - inter_share) * p.frame_intra.cpu_ns;
    let wake_cpu = (p.park_wake.cpu_ns / 2.0).min(frame_cpu);
    let framing = if framed {
        2.0 * (c.inter_bytes_sent + c.retransmit_bytes) as f64 * p.payload_checksum_ns_per_byte
    } else {
        0.0
    };
    let transport = frames * (frame_cpu - wake_cpu) + framing;
    let sched = frames * wake_cpu + c.copies as f64 * p.deposit_fetch_ns / 2.0;
    let spawn = worlds_per_op * p.spawn_join_cpu_us * 1e3;
    let share = |ns_all_ops: f64| {
        if cpu_ns_per_op > 0.0 {
            ns_all_ops / ops / cpu_ns_per_op
        } else {
            0.0
        }
    };
    Shares {
        crypto: share(crypto),
        copy: share(copy),
        transport: share(transport),
        sched: share(sched),
        spawn: if cpu_ns_per_op > 0.0 {
            spawn / cpu_ns_per_op
        } else {
            0.0
        },
    }
}
