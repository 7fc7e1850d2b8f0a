//! The live run: a typed `Service<KvStore>` over the epoll TCP backend,
//! driven by one load-generator thread (this one).

use crate::procfs::{self, ProcSample};
use crate::trace::Tracer;
use crate::verify::StreamCheck;
use crate::workload::{Gen, Load};
use allconcur_cluster::Cluster;
use allconcur_core::replica::{KvResponse, KvStore};
use allconcur_core::ServerId;
use allconcur_net::link::LinkStatsSnapshot;
use allconcur_net::runtime::RuntimeOptions;
use allconcur_rsm::{CommandHandle, DurabilityConfig, DurabilityStore, Service, ServiceError};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How long after the measured window in-flight commands may still
/// complete before they count as failed.
const DRAIN: Duration = Duration::from_secs(3);
/// No response for this long while commands are outstanding is a stall.
const STALL: Duration = Duration::from_secs(2);
/// Longest single `pump` wait, so deadlines are checked often.
const PUMP_SLICE: Duration = Duration::from_millis(20);
/// Budget for set-up's first round.
const FIRST_ROUND: Duration = Duration::from_secs(20);
/// Budget for the final `sync` that brings every replica current.
const SETTLE: Duration = Duration::from_secs(3);

/// Set-up phases of one deployment, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// GS(n, d) overlay construction.
    pub overlay_ms: f64,
    /// `Cluster::tcp_with`: bind, spawn reactors, start every server.
    pub spawn_ms: f64,
    /// `Service::new` / `Service::with_durability` (WAL creation).
    pub service_new_ms: f64,
    /// First round, from its first submit to its last response.
    pub first_round_ms: f64,
}

impl SetupTimes {
    /// Whole set-up, seconds.
    pub fn total_s(&self) -> f64 {
        (self.overlay_ms + self.spawn_ms + self.service_new_ms + self.first_round_ms) / 1e3
    }
}

/// A deployment ready for load, with the index of the next command to
/// submit.
pub struct Deployment {
    /// The service under test.
    pub svc: Service<KvStore>,
    /// Next command index.
    pub next_index: u64,
    /// WAL directory, for durable workloads.
    pub wal_dir: Option<PathBuf>,
}

/// Build a deployment and run its first round (commands `0..`, one
/// closed-loop batch or one command per origin).
pub fn setup(gen: &Gen, wal_dir: Option<PathBuf>) -> Result<(Deployment, SetupTimes), String> {
    let w = *gen.workload();
    let mut t = SetupTimes::default();
    let t0 = Instant::now();
    let graph = w.overlay();
    t.overlay_ms = ms(t0.elapsed());

    let t0 = Instant::now();
    let opts = RuntimeOptions { round_window: w.window, ..RuntimeOptions::default() };
    let cluster = Cluster::tcp_with(graph, opts).map_err(|e| format!("spawn: {e}"))?;
    t.spawn_ms = ms(t0.elapsed());

    let t0 = Instant::now();
    let mut svc = match &wal_dir {
        Some(dir) => {
            let store = DurabilityStore::on_disk(dir, w.n).map_err(|e| format!("wal dir: {e}"))?;
            Service::with_durability(
                cluster,
                &KvStore::default(),
                store,
                DurabilityConfig::default(),
            )
        }
        None => Service::new(cluster, &KvStore::default()),
    }
    .map_err(|e| format!("service: {e}"))?;
    svc.set_pipeline(w.window);
    svc.record_deliveries(true);
    t.service_new_ms = ms(t0.elapsed());

    let t0 = Instant::now();
    let first = match w.load {
        Load::Closed { .. } => w.cmds_per_batch(),
        Load::Open { .. } => w.n as u64,
    };
    let mut handles = Vec::with_capacity(first as usize);
    for index in 0..first {
        let h = svc
            .submit(w.origin(index), &gen.command(index))
            .map_err(|e| format!("first round: {e}"))?;
        handles.push(h);
    }
    svc.flush().map_err(|e| format!("first round: {e}"))?;
    for h in &handles {
        svc.wait(h, FIRST_ROUND).map_err(|e| format!("first round: {e}"))?;
    }
    t.first_round_ms = ms(t0.elapsed());
    Ok((Deployment { svc, next_index: first, wal_dir }, t))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A submitted command awaiting its response.
struct Pending {
    handle: CommandHandle<KvResponse>,
    index: u64,
    /// Due time (open loop) or batch start (closed loop).
    start: Instant,
    /// Closed-loop batch number.
    batch: u64,
}

/// Weighted samples `(ms, commands)`: commands redeemed in one pass
/// with one start share a latency sample.
pub type Samples = Vec<(f64, u64)>;

/// What the measured run observed.
#[derive(Debug, Default)]
pub struct LiveResult {
    /// Commands the load generator tried to submit.
    pub attempted: u64,
    /// Commands acknowledged with a response.
    pub acked: u64,
    /// Acknowledged within the measured window.
    pub acked_in_window: u64,
    /// Acknowledged when the window's process counters were read.
    pub acked_at_close: u64,
    /// Refused at submit (`Busy`, origin down).
    pub refused: u64,
    /// Failed with a typed error after submission.
    pub errors: u64,
    /// Still outstanding at the run deadline.
    pub outstanding: u64,
    /// Submit-to-response (closed) or due-to-response (open) latency.
    pub latency: Samples,
    /// Generator lateness, one sample per submission (open) or refill
    /// (closed).
    pub late: Samples,
    /// Measured window, seconds.
    pub window_s: f64,
    /// Process counters over the window.
    pub proc: ProcSample,
    /// Client-thread CPU over the window, µs.
    pub client_cpu_us: f64,
    /// Rounds server 0 delivered during the window.
    pub rounds_in_window: u64,
    /// Stalls detected.
    pub stalls: u64,
    /// Longest time with commands outstanding and no response, ms.
    pub max_gap_ms: f64,
    /// Allocations counted over the window (traced runs only).
    pub allocs: u64,
    /// Share of the host's CPU time stolen by the hypervisor over the
    /// window, percent — a diagnostic for disturbed runs.
    pub host_steal_pct: f64,
}

impl LiveResult {
    /// Failed commands, any cause.
    pub fn failed(&self) -> u64 {
        self.refused + self.errors + self.outstanding
    }
}

/// Drive `dep` for a `window` of measured load, then drain. Every
/// delivery the service records is folded into `check`.
pub fn run(
    gen: &Gen,
    dep: &mut Deployment,
    window: Duration,
    seed: u64,
    tracer: &mut Tracer,
    check: &mut StreamCheck,
    count_allocs: bool,
) -> LiveResult {
    let w = *gen.workload();
    let svc = &mut dep.svc;
    let mut r = LiveResult::default();
    let mut pending: VecDeque<Pending> = VecDeque::new();
    // Closed loop: (batch, commands still unresolved), oldest first.
    let mut batches: VecDeque<(u64, u64)> = VecDeque::new();
    let mut next_batch = 1u64;
    let mut slot_freed: Option<Instant> = None;
    let open_first = dep.next_index;

    for (at, d) in svc.take_delivery_log() {
        check.ingest(at, d);
    }
    let client0 = procfs::thread_cpu_ticks();
    let proc0 = ProcSample::read();
    let steal0 = procfs::host_steal();
    if count_allocs {
        crate::alloc_count::set_counting(true);
    }
    let allocs0 = crate::alloc_count::allocs();
    let t0 = Instant::now();
    let end = t0 + window;
    let deadline = end + DRAIN;
    let due =
        |index: u64, rate: f64| t0 + Duration::from_secs_f64((index - open_first) as f64 / rate);
    let mut window_closed = false;
    let mut last_progress = t0;
    let mut stall_reported = false;

    loop {
        let it = tracer.begin("iteration");
        let now = Instant::now();
        if !window_closed && now >= end {
            window_closed = true;
            close_window(&mut r, t0, client0, &proc0, steal0, allocs0, count_allocs);
        }
        if now < end {
            match w.load {
                Load::Closed { .. } => {
                    while batches.len() < w.window {
                        let start = Instant::now();
                        let per = w.cmds_per_batch();
                        let first = next_batch * per;
                        let span = tracer.begin("submit");
                        let mut queued = 0;
                        for index in first..first + per {
                            r.attempted += 1;
                            match svc.submit(w.origin(index), &gen.command(index)) {
                                Ok(handle) => {
                                    pending.push_back(Pending {
                                        handle,
                                        index,
                                        start,
                                        batch: next_batch,
                                    });
                                    queued += 1;
                                }
                                Err(_) => r.refused += 1,
                            }
                        }
                        tracer.end(span, per);
                        if queued > 0 {
                            batches.push_back((next_batch, queued));
                        }
                        next_batch += 1;
                        let span = tracer.begin("flush");
                        let flushed = svc.flush();
                        tracer.end(span, 1);
                        if let Err(e) = flushed {
                            eprintln!("flush failed: {e}");
                        }
                        if let Some(freed) = slot_freed.take() {
                            let now = Instant::now();
                            r.late.push((ms(now - freed), 1));
                        }
                    }
                }
                Load::Open { rate_per_s } => {
                    let span = tracer.begin("submit");
                    let mut submitted = 0;
                    loop {
                        let index = dep.next_index;
                        let due = due(index, rate_per_s);
                        let now = Instant::now();
                        if due > now || now >= end {
                            break;
                        }
                        r.late.push((ms(now - due), 1));
                        r.attempted += 1;
                        submitted += 1;
                        match svc.submit(w.origin(index), &gen.command(index)) {
                            Ok(handle) => {
                                pending.push_back(Pending { handle, index, start: due, batch: 0 })
                            }
                            Err(_) => r.refused += 1,
                        }
                        dep.next_index += 1;
                    }
                    tracer.end(span, submitted);
                    if submitted > 0 {
                        let span = tracer.begin("flush");
                        let flushed = svc.flush();
                        tracer.end(span, 1);
                        if let Err(e) = flushed {
                            eprintln!("flush failed: {e}");
                        }
                    }
                }
            }
        } else if pending.is_empty() || now >= deadline {
            tracer.end(it, 0);
            break;
        } else if w.durable {
            // Load has stopped, so no later append will trigger the
            // group commit the last rounds' acknowledgments wait for.
            if let Err(e) = svc.flush_durability() {
                eprintln!("flush_durability failed: {e}");
            }
        }

        // The benchmark's own checking, kept off the refill path.
        let span = tracer.begin("check");
        for (at, d) in svc.take_delivery_log() {
            if at == 0 && !window_closed {
                r.rounds_in_window += 1;
            }
            check.ingest(at, d);
        }
        tracer.end(span, 0);

        // Wait for the next delivery, at most until the next due time.
        let now = Instant::now();
        let timeout = match w.load {
            Load::Open { rate_per_s } if now < end => {
                PUMP_SLICE.min(due(dep.next_index, rate_per_s).saturating_duration_since(now))
            }
            _ => PUMP_SLICE,
        };
        let span = tracer.begin("pump");
        let pumped = svc.pump(timeout);
        tracer.end(span, 1);
        if let Err(e) = pumped {
            eprintln!("pump failed: {e}");
        }

        // Redeem every response that is ready, oldest first.
        let span = tracer.begin("wait");
        let done_at = Instant::now();
        let mut redeemed = 0;
        let mut shared: Option<(Instant, u64)> = None;
        while let Some(front) = pending.front() {
            let outcome = if w.durable {
                // Non-forcing redeem: `wait` would force the group commit.
                svc.try_response(&front.handle)
            } else {
                match svc.wait(&front.handle, Duration::ZERO) {
                    Err(ServiceError::Timeout { .. }) => Ok(None),
                    other => other.map(Some),
                }
            };
            match outcome {
                Ok(None) => break,
                Ok(Some(resp)) => {
                    r.acked += 1;
                    if done_at <= end {
                        r.acked_in_window += 1;
                    }
                    match &mut shared {
                        Some((start, n)) if *start == front.start => *n += 1,
                        _ => {
                            if let Some((start, n)) = shared.take() {
                                r.latency.push((ms(done_at.saturating_duration_since(start)), n));
                            }
                            shared = Some((front.start, 1));
                        }
                    }
                    check.response(front.index, resp);
                }
                Err(e) => {
                    r.errors += 1;
                    check.error(&e);
                }
            }
            redeemed += 1;
            let batch = front.batch;
            pending.pop_front();
            if let Some(b) = batches.front_mut().filter(|b| b.0 == batch) {
                b.1 -= 1;
                if b.1 == 0 {
                    batches.pop_front();
                    slot_freed.get_or_insert(done_at);
                }
            }
        }
        if let Some((start, n)) = shared {
            r.latency.push((ms(done_at.saturating_duration_since(start)), n));
        }
        tracer.end(span, redeemed);
        if redeemed > 0 {
            r.max_gap_ms = r.max_gap_ms.max(ms(done_at - last_progress));
        }
        // An idle open loop is not a stall: gaps count from the last
        // response or from when the queue was last empty.
        if pending.is_empty() || redeemed > 0 {
            last_progress = done_at;
            stall_reported = false;
        }
        if !pending.is_empty() && !stall_reported && done_at - last_progress >= STALL {
            stall_reported = true;
            r.stalls += 1;
            report_stall(svc, w.name, seed, pending.len(), done_at - last_progress);
        }
        tracer.end(it, 0);
    }
    if !window_closed {
        close_window(&mut r, t0, client0, &proc0, steal0, allocs0, count_allocs);
    }
    r.outstanding = pending.len() as u64;
    if r.outstanding > 0 {
        r.max_gap_ms = r.max_gap_ms.max(ms(Instant::now() - last_progress));
        report_stall(svc, w.name, seed, pending.len(), Instant::now() - last_progress);
    }
    r
}

/// Record the window-boundary counters.
fn close_window(
    r: &mut LiveResult,
    t0: Instant,
    client0: u64,
    proc0: &ProcSample,
    steal0: (u64, u64),
    allocs0: u64,
    counting: bool,
) {
    r.window_s = t0.elapsed().as_secs_f64();
    let (steal, total) = procfs::host_steal();
    r.host_steal_pct = 100.0 * steal.saturating_sub(steal0.0) as f64
        / total.saturating_sub(steal0.1).max(1) as f64;
    r.acked_at_close = r.acked;
    r.proc = ProcSample::read().since(proc0);
    r.client_cpu_us =
        (procfs::thread_cpu_ticks().saturating_sub(client0)) as f64 * 1e6 / procfs::TICKS_PER_SEC;
    if counting {
        r.allocs = crate::alloc_count::allocs() - allocs0;
        crate::alloc_count::set_counting(false);
    }
}

/// Every server's link counters.
pub fn link_stats(svc: &mut Service<KvStore>) -> Vec<LinkStatsSnapshot> {
    let n = svc.n();
    match svc.cluster_mut().tcp_transport_mut().and_then(|t| t.cluster()) {
        Some(c) => (0..n as ServerId).map(|id| c.link_stats(id)).collect(),
        None => Vec::new(),
    }
}

fn report_stall(
    svc: &mut Service<KvStore>,
    workload: &str,
    seed: u64,
    outstanding: usize,
    idle: Duration,
) {
    eprintln!(
        "STALL workload={workload} seed={seed}: {outstanding} commands outstanding, no response for {:.1} s, live servers {}/{}",
        idle.as_secs_f64(),
        svc.live_servers().len(),
        svc.n()
    );
    for (id, s) in link_stats(svc).iter().enumerate() {
        eprintln!("  server {id}: {s:?}");
    }
}

/// Bring every replica current (bounded), drain the last deliveries,
/// and compare replica states. Returns the problems found.
pub fn settle_and_compare(svc: &mut Service<KvStore>, check: &mut StreamCheck) -> Vec<String> {
    let mut problems = Vec::new();
    let synced = svc.sync(SETTLE);
    for (at, d) in svc.take_delivery_log() {
        check.ingest(at, d);
    }
    let live = svc.live_servers();
    if live.len() != svc.n() {
        problems.push(format!(
            "only {}/{} servers live in a failure-free run",
            live.len(),
            svc.n()
        ));
    }
    let integrity = svc.integrity_stats();
    if integrity.divergences > 0 || integrity.quarantines > 0 {
        problems.push(format!("replica divergence audit: {integrity:?}"));
    }
    let mut reference: Option<(ServerId, Option<u64>, &KvStore)> = None;
    for &id in &live {
        let (Ok(replica), Ok(state)) = (svc.replica(id), svc.query_local(id)) else {
            problems.push(format!("replica {id} unreadable"));
            continue;
        };
        let last = replica.last_round();
        match reference {
            None => reference = Some((id, last, state)),
            Some((rid, rlast, rstate)) => {
                if last == rlast && state != rstate {
                    problems.push(format!(
                        "replica {id} state differs from replica {rid} at round {last:?}"
                    ));
                } else if synced.is_ok() && last != rlast {
                    problems.push(format!(
                        "replica {id} at round {last:?}, replica {rid} at {rlast:?} after sync"
                    ));
                }
            }
        }
    }
    if let Some((_, _, state)) = reference {
        if let Some(problem) = check.compare_final(state) {
            problems.push(problem);
        }
    }
    problems
}

/// A fresh WAL directory for set-up number `k` under `root`.
pub fn wal_dir(root: &Path, k: usize) -> PathBuf {
    root.join(format!("setup-{k}"))
}
