//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload against a typed `Service<KvStore>` over the epoll
//! TCP backend, checks every output, and prints the metrics, ending with
//! one JSON result line. The measured time is split over
//! [`SEGMENTS`] fresh deployments built one after another; end-to-end
//! timing metrics come from the [`KEPT`] segments the hypervisor stole
//! the least CPU time from. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` additionally records spans and the agreed stream
//! of the last segment, replays it layer by layer, and reports the
//! per-layer metrics instead. Exits non-zero when a correctness or
//! replay-fidelity check fails.

use allconcur_net::link::LinkStatsSnapshot;
use allconcur_perfbench::alloc_count::CountingAlloc;
use allconcur_perfbench::live::{self, LiveResult, SetupTimes};
use allconcur_perfbench::procfs::ProcSample;
use allconcur_perfbench::replay::{self, Replayed};
use allconcur_perfbench::report::Report;
use allconcur_perfbench::stats::{self, median, tail};
use allconcur_perfbench::trace::{totals, SpanTotals, Tracer};
use allconcur_perfbench::verify::StreamCheck;
use allconcur_perfbench::workload::{Gen, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Deployments per run. Each is set up, measured for `seconds /
/// SEGMENTS`, checked and shut down before the next is built, so
/// per-deployment effects (thread placement, sockets, WAL files) and
/// an isolated stall move one segment, not the median.
const SEGMENTS: usize = 25;

/// Segments whose timing metrics count: those with the least host CPU
/// steal (`/proc/stat`). On a shared host, steal bursts of 10–35%
/// lasting tens of seconds slow every timing they overlap; this keeps
/// them out of the medians without looking at the metrics themselves.
/// Failures count from every segment.
const KEPT: usize = 12;

/// Extra deployments built, timed and shut down just before each
/// segment. `setup_s` is the median over the [`KEPT`] segments' own
/// and extra set-ups: a set-up of eight servers takes milliseconds, so
/// its median needs many, and steal slows it like any other timing.
const SETUPS_PER_SEGMENT: usize = 2;

/// Payload bytes and rounds of server 0's stream kept for the traced
/// replay.
const RETAIN_BYTES: usize = 48 << 20;
const RETAIN_ROUNDS: usize = 400;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::by_name(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = scratch_dir();
    let result = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(report) => {
            print!("{}", report.lines());
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Per-process scratch space (WAL directories) inside the build
/// directory of the checkout.
fn scratch_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join(format!("perfbench-scratch-{}", std::process::id()))
}

/// One deployment's set-up, measured load, and checks.
struct Segment {
    /// This deployment's set-up and the extra ones built just before it.
    setups: Vec<SetupTimes>,
    live: LiveResult,
    problems: Vec<String>,
    links: Vec<LinkStatsSnapshot>,
    short_rounds: u64,
    deliveries: u64,
    /// Rounds server 0 delivered.
    rounds: u64,
    /// Completed WAL group commits, all servers.
    fsyncs: u64,
    shed: u64,
    /// Traced segment only: server 0's retained stream and span totals.
    stream: Vec<allconcur_core::delivery::Delivery>,
    spans: BTreeMap<&'static str, SpanTotals>,
}

fn run_segment(
    args: &Args,
    gen: &Gen,
    k: usize,
    window: Duration,
    traced: bool,
    scratch: &Path,
) -> Result<Segment, String> {
    let w = args.workload;
    let (mut dep, setup) = live::setup(gen, w.durable.then(|| live::wal_dir(scratch, k)))?;
    let mut check = StreamCheck::new(gen, if traced { RETAIN_BYTES } else { 0 }, RETAIN_ROUNDS);
    let mut tracer = Tracer::new(traced);
    let live = live::run(gen, &mut dep, window, args.seed, &mut tracer, &mut check, traced);
    let links = live::link_stats(&mut dep.svc);
    let mut problems = live::settle_and_compare(&mut dep.svc, &mut check);
    let fsyncs = (0..w.n as u32).filter_map(|id| dep.svc.wal(id).map(|wal| wal.syncs())).sum();
    let shed = dep.svc.shed_count();
    dep.svc.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    if let Some(dir) = dep.wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let (found, total) = check.problems();
    problems.extend(found.iter().cloned());
    if total > found.len() {
        problems.push(format!("… {} more stream problems", total - found.len()));
    }
    eprintln!(
        "{} seed={} segment={k} attempted={} acked={} refused={} errors={} (lost {}) outstanding={} stalls={} short_rounds={} rounds={} p50={:.2}ms p99={:.2}ms host_steal={:.1}%",
        w.name,
        args.seed,
        live.attempted,
        live.acked,
        live.refused,
        live.errors,
        check.lost,
        live.outstanding,
        live.stalls,
        check.short_rounds(),
        check.rounds_at_0(),
        tail_of(&live.latency, 50.0),
        tail_of(&live.latency, 99.0),
        live.host_steal_pct
    );
    Ok(Segment {
        setups: vec![setup],
        problems,
        links,
        short_rounds: check.short_rounds(),
        deliveries: check.deliveries(),
        rounds: check.rounds_at_0(),
        fsyncs,
        shed,
        stream: check.take_retained(),
        spans: totals(tracer.spans()),
        live,
    })
}

fn run(args: &Args, scratch: &Path) -> Result<Report, String> {
    let w = args.workload;
    let gen = Gen::new(w, args.seed);
    let window = Duration::from_secs_f64(args.seconds as f64 / SEGMENTS as f64);
    let mut segs = Vec::with_capacity(SEGMENTS);
    for k in 0..SEGMENTS {
        let mut setups = Vec::with_capacity(SETUPS_PER_SEGMENT + 1);
        for j in 0..SETUPS_PER_SEGMENT {
            let dir = live::wal_dir(scratch, SEGMENTS + k * SETUPS_PER_SEGMENT + j);
            let (dep, times) = live::setup(&gen, w.durable.then_some(dir))?;
            setups.push(times);
            dep.svc.shutdown().map_err(|e| format!("shutdown: {e}"))?;
            if let Some(dir) = dep.wal_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        let mut seg = run_segment(args, &gen, k, window, args.trace && k + 1 == SEGMENTS, scratch)?;
        seg.setups.extend(setups);
        segs.push(seg);
    }
    let peak_rss_mb = ProcSample::read().peak_rss_kb as f64 / 1024.0;
    let mut problems: Vec<String> = segs.iter().flat_map(|s| s.problems.iter().cloned()).collect();
    let attempted = segs.iter().map(|s| s.live.attempted).sum();
    let failed = segs.iter().map(|s| s.live.failed()).sum();
    let acked: u64 = segs.iter().map(|s| s.live.acked).sum();
    let mut report = Report { correct: true, attempted, failed, metrics: Vec::new() };
    let mut calm: Vec<&Segment> = segs.iter().collect();
    calm.sort_by(|a, b| a.live.host_steal_pct.total_cmp(&b.live.host_steal_pct));
    calm.truncate(KEPT);
    let med = |f: &dyn Fn(&Segment) -> f64| median(&calm.iter().map(|s| f(s)).collect::<Vec<_>>());
    let setups: Vec<&SetupTimes> = calm.iter().flat_map(|s| &s.setups).collect();
    let setup_med =
        |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(|t| f(t)).collect::<Vec<_>>());
    let throughput = |s: &Segment| s.live.acked_in_window as f64 / window.as_secs_f64();

    // Percentiles pool the kept segments' samples: one short segment
    // holds too few closed-loop rounds for a steady tail.
    let pooled = |f: fn(&LiveResult) -> &live::Samples, pct: f64| {
        let mut v: live::Samples = calm.iter().flat_map(|s| f(&s.live)).copied().collect();
        stats::sort(&mut v);
        tail(&v, pct).map_or(0.0, |t| t.value)
    };

    if !args.trace {
        report.add("setup_s", setup_med(SetupTimes::total_s), "s");
        report.add("throughput_cmds_s", med(&throughput), "1/s");
        report.add("latency_p50_ms", pooled(|r| &r.latency, 50.0), "ms");
        report.add("latency_p99_ms", pooled(|r| &r.latency, 99.0), "ms");
        let cpu = |s: &Segment| {
            (s.live.proc.user_us() + s.live.proc.sys_us()) / s.live.acked_at_close.max(1) as f64
        };
        report.add("cpu_us_per_cmd", med(&cpu), "us");
        report.add("acked_ratio", acked as f64 / attempted.max(1) as f64, "ratio");
        report.add("peak_rss_mb", peak_rss_mb, "MB");
    } else {
        report.add("graph.overlay_ms", setup_med(|s| s.overlay_ms), "ms");
        report.add("net.spawn_ms", setup_med(|s| s.spawn_ms), "ms");
        report.add("rsm.service_new_ms", setup_med(|s| s.service_new_ms), "ms");
        report.add("cluster.first_round_ms", setup_med(|s| s.first_round_ms), "ms");
        let tput = throughput(&segs[SEGMENTS - 1]);
        per_layer(w, &segs[SEGMENTS - 1], tput, scratch, &mut report, &mut problems);
        let gap = segs.iter().map(|s| s.live.max_gap_ms).fold(0.0, f64::max);
        report.add("cluster.max_response_gap_ms", gap, "ms");
        // Sub-millisecond scheduler jitter on an unloaded generator: too
        // noisy between runs to gate on, so it is a per-layer figure.
        report.add("gen_late_p99_ms", pooled(|r| &r.late, 99.0), "ms");
    }

    for p in &problems {
        eprintln!("CHECK FAILED: {p}");
    }
    report.correct = problems.is_empty();
    Ok(report)
}

/// The tail percentile (≤ `pct`, ten samples beyond) of weighted
/// samples, or 0 when there are none.
fn tail_of(samples: &live::Samples, pct: f64) -> f64 {
    let mut v = samples.clone();
    stats::sort(&mut v);
    tail(&v, pct).map_or(0.0, |t| t.value)
}

/// Replay the traced segment's stream and add every per-layer metric.
fn per_layer(
    w: &Workload,
    s: &Segment,
    throughput: f64,
    scratch: &Path,
    report: &mut Report,
    problems: &mut Vec<String>,
) {
    let r = &s.live;
    let rounds = s.rounds.max(1) as f64;
    let wal_dir = scratch.join("replay-wal");
    let wal = w.durable.then(|| (wal_dir.as_path(), s.fsyncs as f64 / (w.n as f64 * rounds)));
    let replayed = match replay::replay(&s.stream, &w.overlay(), w.window, wal) {
        Ok(rp) => {
            if rp.core_hash != rp.live_hash {
                problems.push(format!(
                    "replay fidelity: lockstep core delivered hash {:#018x}, live stream hash {:#018x} over {} rounds",
                    rp.core_hash, rp.live_hash, rp.rounds
                ));
            }
            rp
        }
        Err(e) => {
            problems.push(format!("replay: {e}"));
            Replayed::default()
        }
    };
    eprintln!("replayed {} rounds; delivery hash {:#018x}", replayed.rounds, replayed.core_hash);
    for (name, t) in &s.spans {
        eprintln!(
            "span {name:<10} count {:>9} total {:>10.1} ms self {:>10.1} ms ops {}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.ops
        );
    }
    let span_ns = |name: &str| s.spans.get(name).map_or(0, |t| t.total_ns) as f64;

    report.add("core.handle_us_per_round", replayed.core_us, "us");
    report.add("core.events_per_round", replayed.core_events, "count");
    report.add("core.sends_per_round", replayed.core_sends, "count");
    report.add("core.allocs_per_round", replayed.core_allocs, "count");

    report.add("net.frames_per_round", replayed.frames, "count");
    report.add("net.frame_bytes_per_round", replayed.frame_bytes, "B");
    report.add("net.encode_us_per_round", replayed.encode_us, "us");
    report.add("net.read_frame_us_per_round", replayed.read_us, "us");
    report.add("net.read_frame_allocs_per_frame", replayed.read_allocs_per_frame, "count");
    report.add("core.wire.crc_us_per_round", replayed.crc_us, "us");

    let window_rounds = r.rounds_in_window.max(1) as f64;
    let user = r.proc.user_us() / window_rounds;
    let sys = r.proc.sys_us() / window_rounds;
    let layers = replayed.layers_us();
    let residual = user + sys - layers;
    eprintln!("per round: user {user:.1} us + sys {sys:.1} us = replayed layers {layers:.1} us + residual {residual:.1} us");
    report.add("proc.user_cpu_us_per_round", user, "us");
    report.add("proc.sys_cpu_us_per_round", sys, "us");
    report.add(
        "proc.write_syscalls_per_round",
        r.proc.write_syscalls as f64 / window_rounds,
        "count",
    );
    report.add("proc.write_bytes_per_round", r.proc.write_bytes as f64 / window_rounds, "B");
    report.add("proc.ctx_switches_per_round", r.proc.ctx_switches as f64 / window_rounds, "count");
    report.add("proc.allocs_per_round", r.allocs as f64 / window_rounds, "count");
    report.add("replay.layers_cpu_us_per_round", layers, "us");
    report.add("net.residual_cpu_us_per_round", residual, "us");

    let sum = |f: fn(&LinkStatsSnapshot) -> u64| s.links.iter().map(f).sum::<u64>() as f64;
    report.add("net.link.shed_frames", sum(|l| l.shed_frames), "count");
    report.add("net.link.reconnects", sum(|l| l.reconnects), "count");
    report.add("net.link.suspicions", sum(|l| l.suspicions), "count");
    report.add("net.link.corrupt_frames", sum(|l| l.corrupt_frames), "count");
    report.add("cluster.short_rounds", s.short_rounds as f64, "count");
    report.add("cluster.deliveries_per_round", s.deliveries as f64 / rounds, "count");
    report.add("rsm.shed", s.shed as f64, "count");
    report.add("rsm.failed_ratio", r.failed() as f64 / r.attempted.max(1) as f64, "ratio");

    let submit = s.spans.get("submit").copied().unwrap_or_default();
    report.add(
        "rsm.submit_us_per_cmd",
        submit.total_ns as f64 / 1e3 / submit.ops.max(1) as f64,
        "us",
    );
    report.add("rsm.apply_us_per_round", replayed.apply_us, "us");
    report.add("rsm.cmds_per_round", replayed.cmds, "count");
    // The client thread blocks only while pumping for deliveries or in fsync,
    // so its off-CPU share of the window is the service's idle wait.
    let window_us = r.window_s * 1e6;
    report.add(
        "rsm.pump_idle_ratio",
        ((window_us - r.client_cpu_us) / window_us).clamp(0.0, 1.0),
        "ratio",
    );
    report.add("bench.check_us_per_round", span_ns("check") / 1e3 / rounds, "us");

    let mut fsync: Vec<(f64, u64)> = replayed.fsync_us.iter().map(|&f| (f, 1)).collect();
    stats::sort(&mut fsync);
    report.add("durability.append_us_per_round", replayed.append_us, "us");
    report.add("durability.fsyncs_per_round", s.fsyncs as f64 / rounds, "count");
    report.add("durability.fsync_p50_us", tail(&fsync, 50.0).map_or(0.0, |t| t.value), "us");
    report.add("durability.fsync_p99_us", tail(&fsync, 99.0).map_or(0.0, |t| t.value), "us");
    report.add("durability.bytes_per_round", replayed.wal_bytes, "B");
    report.add("trace.throughput_cmds_s", throughput, "1/s");
}
