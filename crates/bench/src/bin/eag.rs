//! `eag` — the encrypted all-gather command-line tool.
//!
//! ```text
//! eag run        --algo HS2 --p 128 --nodes 8 --size 4KB [--mapping cyclic]
//!                [--op bcast|gather|scatter|alltoall|allgatherv|…]
//!                [--profile bridges2] [--cipher aes-gcm-siv] [--real]
//!                [--trace] [--json out.json]
//!                [--crash 3@1 --crash 2@0e1 …]  (crash-tolerant run)
//! eag sweep      --p 128 --nodes 8 [--mapping block] [--profile noleland]
//!                [--sizes 1B,1KB,64KB,1MB]
//! eag bench      [--json BENCH_noleland.json]
//! eag regress    --baseline BENCH_noleland.json [--current BENCH_ci.json]
//! eag recommend  --p 128 --nodes 8 --size 64KB [--profile noleland]
//! eag audit      --p 12 --nodes 3 [--size 256B]
//! eag paper      table1|…|table6|fig1|fig5|…|fig8|scaling|shape-check|all
//! eag calibrate  [--base noleland] [--p 32 --nodes 4]
//! eag list
//! ```

use eag_bench::calibrate::{calibrate_local_suite, Sample};
use eag_bench::fmt::{parse_size, size_label};
use eag_bench::harness::{crash_schedule_run, run_verified, DATA_SEED};
use eag_bench::report::{entry, CrashPoint, SuiteCase, SCHEMA_VERSION};
use eag_bench::tables::{best_scheme_table, render_best_scheme_table};
use eag_bench::{BenchReport, SimConfig};
use eag_core::{Algorithm, Collective, Operation};
use eag_netsim::{profile, Crash, FaultPlan, Mapping, Topology};
use eag_runtime::{pattern_block, CipherSuite, DataMode, RunReport, WorldSpec};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        // The one command that takes a positional argument, not flags.
        "paper" => cmd_paper(args.get(1)),
        _ => Options::parse(&args[1..]).and_then(|opts| match command.as_str() {
            "run" => cmd_run(&opts),
            "sweep" => cmd_sweep(&opts),
            "bench" => cmd_bench(&opts),
            "regress" => cmd_regress(&opts),
            "recommend" => cmd_recommend(&opts),
            "audit" => cmd_audit(&opts),
            "calibrate" => cmd_calibrate(&opts),
            "list" => cmd_list(),
            other => Err(format!("unknown command {other:?}")),
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
eag — encrypted all-gather simulator and benchmark CLI

commands:
  run        simulate one collective once (--algo, --p, --nodes, --size;
             optional --op allgather|allgatherv|bcast|gather|gatherv|
             scatter|scatterv|alltoall — default allgather; --op also
             accepts op/variant in one flag, e.g. --op bcast/binomial;
             optional --mapping block|cyclic, --profile, --real, --trace,
             --chrome-trace out.json, --cipher
             aes-gcm|aes-gcm-siv|chacha20-poly1305).
             Repeatable --crash RANK@STEP[eEPOCH][a][h] switches to a
             crash-tolerant run surviving that schedule: STEP counts the
             rank's peer sends within its arming epoch (e1 = inside the
             first agreement instance), 'a' dies after the send leaves,
             'h' is a hard crash (silent; suspected after a grace
             period). A schedule replays deterministically: same flags,
             same recovery.
  sweep      best-scheme table across sizes (--p, --nodes; optional
             --mapping, --profile, --sizes 1B,1KB,…, --csv out.csv)
  bench      run the fixed deterministic smoke suite (latency entries,
             crash-recovery cells, and the concurrent-sessions sweep:
             throughput and p95/p99 tail latency vs 1→10k tenant sessions)
             and emit the machine-readable report
             (--json PATH or '-' for stdout)
  regress    diff a report against a baseline, cell by cell
             (--baseline BENCH_x.json; optional --current BENCH_y.json,
             else the smoke suite is re-run). Exits nonzero if any cell
             changed in any field or is missing from either side
  recommend  model-driven algorithm pick (--p, --nodes, --size)
  audit      wiretap security audit of all encrypted algorithms
             (--p, --nodes; optional --size)
  calibrate  measure THIS machine's crypto/memcpy speeds for every AEAD
             backend (seal/open MB/s table), fit per-suite Hockney
             constants, and compare algorithms under each fitted profile
             (optional --base noleland|bridges2, --p, --nodes)
  paper      regenerate one table or figure of the paper's evaluation
             (table1..table6, fig1, fig5..fig8), the node-count scaling
             study (scaling), the qualitative-claims check (shape-check,
             exits nonzero on a failed claim), or everything (all)
  list       list all algorithms";

struct Options {
    flags: HashMap<String, String>,
    /// Every `--crash` occurrence, in order — the one repeatable flag
    /// (`flags` is last-wins).
    crashes: Vec<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut flags = HashMap::new();
        let mut crashes = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument {arg:?}"));
            };
            // Boolean flags.
            if matches!(name, "real" | "trace") {
                flags.insert(name.to_string(), "true".to_string());
                continue;
            }
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            if name == "crash" {
                crashes.push(value.clone());
                continue;
            }
            flags.insert(name.to_string(), value.clone());
        }
        Ok(Options { flags, crashes })
    }

    fn usize_of(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad number {v:?}")),
        }
    }

    fn size_of(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => parse_size(v).ok_or_else(|| format!("--{name}: bad size {v:?}")),
        }
    }

    fn mapping(&self) -> Result<Mapping, String> {
        match self.flags.get("mapping").map(String::as_str) {
            None | Some("block") => Ok(Mapping::Block),
            Some("cyclic") => Ok(Mapping::Cyclic),
            Some(other) => Err(format!("--mapping: {other:?} (use block|cyclic)")),
        }
    }

    /// Parses --profile (default noleland) into a known profile name.
    fn profile_name(&self) -> Result<String, String> {
        let name = self.flags.get("profile").map_or("noleland", String::as_str);
        match profile::by_name(name) {
            Some(_) => Ok(name.to_string()),
            None => Err(format!("--profile: unknown profile {name:?}")),
        }
    }

    fn bool_of(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// Parses --cipher (default aes-gcm).
    fn cipher(&self) -> Result<CipherSuite, String> {
        match self.flags.get("cipher") {
            None => Ok(CipherSuite::AesGcm128),
            Some(v) => CipherSuite::by_name(v).ok_or_else(|| {
                format!("--cipher: {v:?} (use aes-gcm|aes-gcm-siv|chacha20-poly1305)")
            }),
        }
    }

    /// Parses and validates --p / --nodes.
    fn shape(&self, default_p: usize, default_nodes: usize) -> Result<(usize, usize), String> {
        let p = self.usize_of("p", default_p)?;
        let nodes = self.usize_of("nodes", default_nodes)?;
        if p == 0 || nodes == 0 {
            return Err("--p and --nodes must be at least 1".into());
        }
        if p % nodes != 0 {
            return Err(format!(
                "--p {p} must be a multiple of --nodes {nodes} (the paper's ℓ = p/N assumption)"
            ));
        }
        Ok((p, nodes))
    }

    /// Parses every `--crash` occurrence into the planned crash schedule.
    fn crash_schedule(&self) -> Result<Vec<Crash>, String> {
        self.crashes.iter().map(|s| parse_crash(s)).collect()
    }
}

/// Parses one `--crash` spec: `RANK@STEP[eEPOCH][a][h]`.
///
/// * `3@1`   — rank 3 dies just before its 2nd peer send (epoch 0);
/// * `2@0e1` — rank 2 dies at epoch 1's first send, i.e. inside round 0
///   of the first survivor-agreement instance;
/// * `4@0a`  — rank 4 dies just *after* its first send left;
/// * `1@0h`  — hard crash: departs silently, suspected after the grace
///   period.
fn parse_crash(spec: &str) -> Result<Crash, String> {
    let bad = || format!("--crash: bad spec {spec:?} (use RANK@STEP[eEPOCH][a][h])");
    let (rank_s, rest) = spec.split_once('@').ok_or_else(bad)?;
    let rank: usize = rank_s.parse().map_err(|_| bad())?;
    let digits = |s: &str| s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    let step_end = digits(rest);
    let step: u64 = rest[..step_end].parse().map_err(|_| bad())?;
    let mut tail = &rest[step_end..];
    let mut epoch = 0u64;
    if let Some(t) = tail.strip_prefix('e') {
        let end = digits(t);
        epoch = t[..end].parse().map_err(|_| bad())?;
        tail = &t[end..];
    }
    let (mut after, mut hard) = (false, false);
    for c in tail.chars() {
        match c {
            'a' => after = true,
            'h' => hard = true,
            _ => return Err(bad()),
        }
    }
    let c = if after {
        Crash::after(rank, step)
    } else {
        Crash::before(rank, step)
    };
    let c = c.at_epoch(epoch);
    Ok(if hard { c.hard() } else { c })
}

/// The variant `eag run --op <operation>` picks when no `--algo` is given.
/// The all-gathers have no obvious default among 19 variants, so they keep
/// requiring `--algo`.
fn default_collective(op: &str) -> Option<Collective> {
    let variant = match Operation::by_name(op)? {
        Operation::Allgather | Operation::Allgatherv => return None,
        Operation::Broadcast
        | Operation::Gather
        | Operation::Gatherv
        | Operation::Scatter
        | Operation::Scatterv => "binomial",
        Operation::Alltoall => "pairwise",
    };
    Collective::by_names(op, variant)
}

/// Resolves `--op` / `--algo` into the collective to run. `--op` accepts
/// either an operation name (variant from `--algo`, or the operation's
/// default) or a combined `op/variant` spec.
fn parse_collective(opts: &Options) -> Result<Collective, String> {
    let (op, inline_variant) = match opts.flags.get("op").map(String::as_str) {
        Some(spec) => match spec.split_once('/') {
            Some((o, v)) => (o.to_string(), Some(v.to_string())),
            None => (spec.to_string(), None),
        },
        None => ("allgather".to_string(), None),
    };
    if Operation::by_name(&op).is_none() {
        return Err(format!("unknown operation {op:?} (try `eag list`)"));
    }
    match inline_variant.or_else(|| opts.flags.get("algo").cloned()) {
        Some(variant) => Collective::by_names(&op, &variant)
            .ok_or_else(|| format!("unknown collective {op}/{variant} (try `eag list`)")),
        None => default_collective(&op)
            .ok_or_else(|| format!("--op {op} needs --algo (try `eag list`)")),
    }
}

/// The cell `eag run` measures: `--op`/`--algo` with `--size` blocks on the
/// contention-free world of `--p`/`--nodes`/`--mapping`/`--profile` (the
/// `eag bench` cell of that point) under `--cipher`, with real payloads
/// under `--real`.
fn run_cell(opts: &Options) -> Result<SuiteCase, String> {
    let (p, nodes) = opts.shape(16, 4)?;
    Ok(SuiteCase {
        cfg: SimConfig {
            suite: opts.cipher()?,
            data_seed: opts.bool_of("real").then_some(DATA_SEED),
            ..SimConfig::deterministic(p, nodes, opts.mapping()?, &opts.profile_name()?)
        },
        collective: parse_collective(opts)?,
        msg_bytes: opts.size_of("size", 1024)?,
    })
}

fn cmd_run(opts: &Options) -> Result<(), String> {
    let case = run_cell(opts)?;
    let crashes = opts.crash_schedule()?;
    if !crashes.is_empty() {
        return cmd_run_crash(&case, crashes);
    }
    let mut spec = case.cfg.world_spec(FaultPlan::default());
    spec.trace = opts.bool_of("trace");
    spec.capture_wire = opts.bool_of("real");
    let report = run_verified(&spec, case.collective, case.msg_bytes);
    print!("{}", render_run(&case, &report));
    if spec.trace {
        print!("{}", eag_runtime::trace::render_gantt(&report.traces, 100));
        if let Some(path) = opts.flags.get("chrome-trace") {
            let json = eag_runtime::trace::to_chrome_trace(&report.traces);
            std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
            println!("chrome trace written to {path} (open in chrome://tracing)");
        }
    }
    if let Some(path) = opts.flags.get("json") {
        write_report(&run_report(&case, &report), path)?;
    }
    Ok(())
}

/// What `eag run` prints about its one run of `case`.
fn render_run(case: &SuiteCase, report: &RunReport<()>) -> String {
    let (cfg, collective) = (&case.cfg, case.collective);
    let mx = report.max_metrics();
    let mut out = format!(
        "{} | p={} N={} {} | {} blocks | profile {} | cipher {}\n\
         latency: {:.2} µs\n\
         critical path: rc={} sc={}B re={} se={}B rd={} sd={}B\n",
        collective.name(),
        cfg.p,
        cfg.nodes,
        cfg.mapping,
        size_label(case.msg_bytes),
        cfg.profile,
        cfg.suite,
        report.latency_us,
        mx.comm_rounds,
        mx.sc_payload(),
        mx.enc_rounds,
        mx.enc_bytes,
        mx.dec_rounds,
        mx.dec_bytes
    );
    // Every new operation is encrypted by construction; among the
    // all-gathers only the encrypted variants promise a clean wiretap.
    let encrypted = match collective {
        Collective::Allgather(a) | Collective::Allgatherv(a) => a.is_encrypted(),
        _ => true,
    };
    if encrypted && cfg.data_seed.is_some() {
        out.push_str(&format!(
            "wiretap: {} frames, plaintext seen: {}\n",
            report.wiretap.frame_count(),
            report.wiretap.saw_plaintext_frame()
        ));
    }
    out
}

/// The single-entry report `eag run --json` writes: the run it printed.
fn run_report(case: &SuiteCase, report: &RunReport<()>) -> BenchReport {
    BenchReport {
        schema_version: SCHEMA_VERSION,
        suite: "run".into(),
        profile: case.cfg.profile.clone(),
        entries: vec![entry(case, report.latency_us, &report.max_metrics())],
        recovery: Vec::new(),
        sessions: Vec::new(),
    }
}

/// `eag run --crash …`: one crash-tolerant collective surviving the planned
/// crash schedule, against its fault-free reference. Runs the operation's
/// recovery wrapper under real payloads (survivor agreement seals actual
/// failure bitmaps and the outputs verify bit-exact) with flag-based
/// detection, so a given schedule replays deterministically.
fn cmd_run_crash(case: &SuiteCase, crashes: Vec<Crash>) -> Result<(), String> {
    let (cfg, collective) = (&case.cfg, case.collective);
    if let Some(c) = crashes.iter().find(|c| c.rank >= cfg.p) {
        return Err(format!("--crash: rank {} is outside 0..{}", c.rank, cfg.p));
    }
    let schedule: Vec<String> = crashes.iter().map(|c| CrashPoint::of(c).label()).collect();
    let r = crash_schedule_run(cfg, collective, case.msg_bytes, crashes);
    println!(
        "{} | p={} N={} {} | {} blocks | profile {} | crash schedule [{}]",
        collective.name(),
        cfg.p,
        cfg.nodes,
        cfg.mapping,
        size_label(case.msg_bytes),
        cfg.profile,
        schedule.join(", ")
    );
    if !r.ok() {
        // Not a usage error: fail without re-printing the usage text.
        eprintln!("error: the recovery contract failed: {r:?}");
        std::process::exit(1);
    }
    println!("crashed: {:?} | survivors: {}", r.crashed, r.survivors);
    println!(
        "latency: {:.2} µs (clean run {:.2} µs + detection + agreement + re-runs)",
        r.latency_us, r.clean_latency_us
    );
    if !r.fired {
        println!("note: no planned crash fired (the schedule never reached its send steps)");
    }
    Ok(())
}

/// Writes a report as JSON to `path`, or to stdout when `path` is `-`.
fn write_report(report: &BenchReport, path: &str) -> Result<(), String> {
    let json = report.to_json();
    if path == "-" {
        print!("{json}");
    } else {
        std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "bench report written to {path} ({} entries, {} recovery, {} sessions)",
            report.entries.len(),
            report.recovery.len(),
            report.sessions.len(),
        );
    }
    Ok(())
}

fn cmd_bench(opts: &Options) -> Result<(), String> {
    let report = eag_bench::report::run_smoke_suite();
    let path = opts.flags.get("json").map(String::as_str).unwrap_or("-");
    write_report(&report, path)
}

fn read_report(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    BenchReport::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_regress(opts: &Options) -> Result<(), String> {
    let baseline = read_report(
        opts.flags
            .get("baseline")
            .ok_or("regress needs --baseline BENCH_<profile>.json")?,
    )?;
    let current = match opts.flags.get("current") {
        Some(path) => read_report(path)?,
        None => {
            println!("re-running the smoke suite…");
            eag_bench::report::run_smoke_suite()
        }
    };
    let out = eag_bench::regress::compare(&baseline, &current);
    for d in &out.diffs {
        println!("{d}");
    }
    println!(
        "gate: {} compared, {} changed, {} unmatched",
        out.compared,
        out.changed(),
        out.unmatched()
    );
    if out.pass() {
        println!("PASS");
        Ok(())
    } else {
        // Not a usage error: fail without re-printing the usage text.
        eprintln!("error: regression gate FAILED");
        std::process::exit(1);
    }
}

fn cmd_sweep(opts: &Options) -> Result<(), String> {
    let (p, nodes) = opts.shape(128, 8)?;
    let cfg = SimConfig::contended(p, nodes, opts.mapping()?, &opts.profile_name()?);
    let sizes: Vec<usize> = match opts.flags.get("sizes") {
        None => vec![1, 64, 1024, 8 * 1024, 64 * 1024, 1024 * 1024],
        Some(list) => list
            .split(',')
            .map(|s| parse_size(s).ok_or_else(|| format!("bad size {s:?}")))
            .collect::<Result<_, _>>()?,
    };
    let rows = best_scheme_table(&cfg, &sizes);
    if let Some(path) = opts.flags.get("csv") {
        let csv = eag_bench::tables::render_best_scheme_csv(&rows);
        std::fs::write(path, csv).map_err(|e| format!("writing {path}: {e}"))?;
        println!("csv written to {path}");
    }
    print!(
        "{}",
        render_best_scheme_table(
            &format!(
                "Best scheme sweep — p={}, N={}, {} mapping, {} profile",
                cfg.p, cfg.nodes, cfg.mapping, cfg.profile
            ),
            &rows
        )
    );
    Ok(())
}

fn cmd_recommend(opts: &Options) -> Result<(), String> {
    let (p, nodes) = opts.shape(128, 8)?;
    let m = opts.size_of("size", 64 * 1024)?;
    let name = opts.profile_name()?;
    let prof = profile::by_name(&name).expect("profile_name checked it");
    let pick = eag_core::recommend(p, nodes, m, &prof.model);
    println!(
        "recommended scheme for p={p}, N={nodes}, {} blocks on {name}: {}",
        size_label(m),
        pick.name()
    );
    for &algo in Algorithm::encrypted_all() {
        if let Some(t) = eag_core::predict_latency_us(algo, p, nodes, m, &prof.model) {
            println!("  {:<10} {t:>12.2} µs (model)", algo.name());
        }
    }
    Ok(())
}

fn cmd_audit(opts: &Options) -> Result<(), String> {
    let (p, nodes) = opts.shape(12, 3)?;
    let m = opts.size_of("size", 256)?;
    let seed = 17u64;
    println!("wiretap audit: p={p}, N={nodes}, {} blocks", size_label(m));
    for &algo in Algorithm::encrypted_all() {
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            let cfg = SimConfig {
                data_seed: Some(seed),
                ..SimConfig::deterministic(p, nodes, mapping, "free")
            };
            let mut spec = cfg.world_spec(FaultPlan::default());
            spec.capture_wire = true;
            let report = run_verified(&spec, Collective::Allgather(algo), m);
            let mut leaked = report.wiretap.saw_plaintext_frame();
            for rank in 0..p {
                if m >= 16 && report.wiretap.contains(&pattern_block(seed, rank, m)) {
                    leaked = true;
                }
            }
            println!(
                "  {:<10} {:<6} {}",
                algo.name(),
                mapping.to_string(),
                if leaked { "LEAKED" } else { "clean" }
            );
            if leaked {
                return Err(format!("{algo} leaked plaintext"));
            }
        }
    }
    println!("all encrypted algorithms clean");
    Ok(())
}

fn cmd_calibrate(opts: &Options) -> Result<(), String> {
    let base = opts
        .flags
        .get("base")
        .cloned()
        .unwrap_or_else(|| "noleland".to_string());
    let (p, nodes) = opts.shape(32, 4)?;

    // Calibrate every AEAD backend: per-suite Hockney fits feed per-suite
    // profiles, so the algorithm comparison below answers "which collective
    // wins under *this* cipher on *this* machine".
    let mut cals = Vec::new();
    for suite in CipherSuite::ALL {
        println!(
            "measuring local {suite} ({}) and memcpy costs…",
            kernel_tier(suite)
        );
        let cal = calibrate_local_suite(&base, suite)
            .ok_or_else(|| format!("unknown base profile {base:?}"))?;
        cals.push(cal);
    }

    for cal in &cals {
        let model = &cal.profile.model;
        println!(
            "
fitted constants ({}):",
            cal.profile.name
        );
        println!(
            "  encrypt : {:.3} µs + m / {:.0} MB/s",
            model.crypto.enc_alpha_us, model.crypto.enc_bandwidth
        );
        println!(
            "  decrypt : {:.3} µs + m / {:.0} MB/s",
            model.crypto.dec_alpha_us, model.crypto.dec_bandwidth
        );
        println!(
            "  memcpy  : {:.3} µs + m / {:.0} MB/s",
            model.copy_alpha_us, model.copy_bandwidth
        );
    }

    // Per-size seal / open throughput of every backend side by side: the
    // probe samples the fits above were made from.
    println!("\nmeasured seal / open throughput (MB/s, wall clock):");
    print!("{:>8}", "size");
    for cal in &cals {
        print!(" {:>24}", cal.suite.name());
    }
    println!();
    let mb_per_s = |s: &Sample| s.bytes as f64 / s.secs_per_op / 1e6;
    for (i, sample) in cals[0].seal.iter().enumerate() {
        print!("{:>8}", size_label(sample.bytes));
        for cal in &cals {
            let (seal, open) = (mb_per_s(&cal.seal[i]), mb_per_s(&cal.open[i]));
            print!(" {:>24}", format!("{seal:.0} / {open:.0}"));
        }
        println!();
    }

    // Algorithm crossover under each suite's fitted profile: where the
    // encrypted schemes overtake the MPI baseline depends on the cipher's
    // αe/βe, so the table is per backend.
    for cal in &cals {
        println!(
            "
algorithm comparison under {} (p={p}, N={nodes}):",
            cal.profile.name
        );
        println!(
            "{:>8} {:>14} {:>12} {:>12}",
            "size", "MPI (µs)", "Naive", "best"
        );
        for m in [1024usize, 64 * 1024, 1024 * 1024] {
            let latency = |algo: Algorithm| {
                // The fitted profile has no name to build a `SimConfig` from.
                let spec = WorldSpec::new(
                    Topology::new(p, nodes, Mapping::Block),
                    cal.profile.clone(),
                    DataMode::Phantom,
                );
                run_verified(&spec, Collective::Allgather(algo), m).latency_us
            };
            let mpi = latency(Algorithm::Mvapich);
            let naive = latency(Algorithm::Naive);
            let (best, best_t) = Algorithm::encrypted_all()
                .iter()
                .filter(|&&a| a != Algorithm::Naive)
                .map(|&a| (a, latency(a)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            println!(
                "{:>8} {:>14.2} {:>+11.1}% {:>+11.1}% ({})",
                size_label(m),
                mpi,
                (naive / mpi - 1.0) * 100.0,
                (best_t / mpi - 1.0) * 100.0,
                best
            );
        }
    }
    Ok(())
}

fn cmd_paper(id: Option<&String>) -> Result<(), String> {
    let id = id.ok_or("paper needs an experiment id")?;
    if !eag_bench::paper::print_experiment(id)? {
        // The experiment reported its own failure: not a usage error.
        std::process::exit(1);
    }
    Ok(())
}

fn cmd_list() -> Result<(), String> {
    println!("unencrypted baselines:");
    for a in Algorithm::unencrypted_all() {
        println!("  {}", a.name());
    }
    println!("encrypted:");
    for a in Algorithm::encrypted_all() {
        println!(
            "  {}{}",
            a.name(),
            if a.supports_varying() {
                "  (supports all-gather-v)"
            } else {
                ""
            }
        );
    }
    println!("other collectives (--op, all encrypted):");
    for c in Collective::new_operations_all() {
        println!("  {}", c.name());
    }
    println!("  allgatherv/<any varying-capable algorithm above>");
    println!("cipher suites (--cipher):");
    for suite in CipherSuite::ALL {
        println!("  {suite}");
    }
    // Which kernels the dispatch picked on this CPU, so a CI log shows what
    // a runner actually tested (and which tiers its tests had to skip).
    for suite in CipherSuite::ALL {
        println!("{suite} kernel on this CPU: {}", kernel_tier(suite));
    }
    Ok(())
}

/// The kernel tier `suite` dispatches to on this CPU, asked of the cipher.
fn kernel_tier(suite: CipherSuite) -> &'static str {
    suite
        .aead_for_key(&eag_crypto::Key::from_bytes([0; 16]))
        .tier()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eag_bench::report::{run_case, smoke_suite};

    fn options(line: &str) -> Options {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Options::parse(&args).expect("valid flags")
    }

    #[test]
    fn run_json_cell_equals_the_smoke_cell() {
        let cell = run_cell(&options("--algo O-Ring --p 16 --nodes 4 --size 1KB")).unwrap();
        let smoke = smoke_suite()
            .into_iter()
            .find(|c| {
                c.collective == cell.collective
                    && (c.cfg.p, c.cfg.nodes, c.cfg.mapping, c.msg_bytes)
                        == (cell.cfg.p, cell.cfg.nodes, cell.cfg.mapping, cell.msg_bytes)
                    && c.cfg.data_seed.is_none()
            })
            .expect("the smoke suite has this cell");
        assert_eq!(run_case(&cell), run_case(&smoke));
    }

    #[test]
    fn run_prints_the_latency_it_writes() {
        // A shape whose contended latency differs from the deterministic
        // one: the printed and the written number come from one run.
        let cell = run_cell(&options("--algo C-Ring --p 16 --nodes 4 --size 64KB")).unwrap();
        assert!(!cell.cfg.nic_contention);
        let spec = cell.cfg.world_spec(FaultPlan::default());
        let report = run_verified(&spec, cell.collective, cell.msg_bytes);
        let written = run_report(&cell, &report);
        let printed = render_run(&cell, &report);
        let latency_us = written.entries[0].latency_us;
        assert!(
            printed.contains(&format!("latency: {latency_us:.2} µs")),
            "{printed}"
        );
        assert_eq!(written.entries[0], run_case(&cell));
    }
}
