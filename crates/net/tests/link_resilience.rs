//! Scripted transport-resilience tests over real loopback TCP: link
//! flaps under and over the grace budget, watermark-bounded Degraded
//! queues, and the typed connect-retry error.
//!
//! These are the end-to-end counterparts of the unit tests in
//! `crates/net/src/link.rs` — the link state machine is driven through
//! a full deployment, and the assertions read the runtimes'
//! [`LinkStatsSnapshot`] counters plus protocol-visible delivery order.

mod common;

use allconcur_graph::standard::complete_digraph;
use allconcur_net::heartbeat::FdParams;
use allconcur_net::link::{connect_with_retry, BackoffPolicy, LinkStatsSnapshot};
use allconcur_net::runtime::RuntimeOptions;
use allconcur_net::LocalCluster;
use bytes::Bytes;
use std::time::{Duration, Instant};

const N: usize = 4;
const ROUND_TIMEOUT: Duration = Duration::from_secs(20);

fn payloads(round: u64) -> Vec<Bytes> {
    (0..N).map(|i| Bytes::from(vec![round as u8, i as u8, 0x5a])).collect()
}

/// Drive one full round and assert every server delivers the same
/// message set (total order across the deployment).
fn run_checked_round(cluster: &LocalCluster, round: u64) {
    for (i, p) in payloads(round).iter().enumerate() {
        assert!(cluster.broadcast(i as u32, p.clone()), "server {i} shed round {round}");
    }
    let mut reference = None;
    for i in 0..N as u32 {
        let d = common::recv_delivery(cluster, i, ROUND_TIMEOUT)
            .unwrap_or_else(|| panic!("server {i} timed out in round {round}"));
        assert_eq!(d.round, round, "server {i}");
        assert_eq!(d.messages.len(), N, "server {i} lost a message in round {round}");
        match &reference {
            None => reference = Some(d.messages),
            Some(r) => assert_eq!(&d.messages, r, "total order violated at server {i}"),
        }
    }
}

/// Poll server `id`'s counters until `pred` holds (10 s budget).
fn wait_stats(
    cluster: &LocalCluster,
    id: u32,
    what: &str,
    pred: impl Fn(&LinkStatsSnapshot) -> bool,
) -> LinkStatsSnapshot {
    common::poll_until(Duration::from_secs(10), || Some(cluster.link_stats(id)).filter(&pred))
        .unwrap_or_else(|| {
            panic!("server {id} never reached `{what}`: {:?}", cluster.link_stats(id))
        })
}

#[test]
fn flap_under_grace_heals_without_suspicion() {
    let opts = RuntimeOptions { link_grace: Duration::from_secs(10), ..RuntimeOptions::default() };
    let cluster = LocalCluster::spawn(complete_digraph(N), opts).unwrap();
    run_checked_round(&cluster, 0);

    // Sever 0 → 1 for 100 ms — far under the grace budget — and submit
    // a round while it is down, so frames buffer in the Degraded queue.
    cluster.link_flap(0, 1, Duration::from_millis(100));
    run_checked_round(&cluster, 1);

    // The flap heals: the writer reconnects and replays its buffered
    // tail, the reader's pending disconnect grace is cancelled.
    let s0 = wait_stats(&cluster, 0, "reconnect with replay", |s| {
        s.reconnects >= 1 && s.replayed_frames >= 1
    });
    assert!(s0.degraded >= 1, "{s0:?}");
    assert_eq!(s0.grace_expired, 0, "under-grace flap must never exhaust the grace: {s0:?}");
    wait_stats(&cluster, 1, "healed reader grace", |s| s.healed >= 1);

    // Zero protocol-visible damage: no suspicions anywhere, no
    // membership change, and the next round totally ordered as usual
    // (replayed frames arrived in order — an out-of-order or lost frame
    // would have stalled or forked the streams above).
    run_checked_round(&cluster, 2);
    for id in 0..N as u32 {
        let s = cluster.link_stats(id);
        assert_eq!(s.suspicions, 0, "server {id} suspected during an under-grace flap: {s:?}");
    }
    cluster.shutdown();
}

#[test]
fn flap_over_grace_escalates_to_exactly_one_suspicion() {
    let opts =
        RuntimeOptions { link_grace: Duration::from_millis(50), ..RuntimeOptions::default() };
    let cluster = LocalCluster::spawn(complete_digraph(N), opts).unwrap();
    run_checked_round(&cluster, 0);

    // Hold 0 → 1 down well past the 50 ms grace: server 1's deferred
    // disconnect grace expires and escalates through the ◇P path.
    cluster.link_flap(0, 1, Duration::from_millis(400));
    wait_stats(&cluster, 1, "suspicion after grace expiry", |s| s.suspicions >= 1);

    // Exactly one: the single expired grace produces a single
    // suspicion, and no other server observed a disconnect at all.
    std::thread::sleep(Duration::from_millis(600)); // outlives the flap + reconnect
    let total: u64 = (0..N as u32).map(|id| cluster.link_stats(id).suspicions).sum();
    assert_eq!(total, 1, "an over-grace flap must cost exactly one suspicion");
    cluster.shutdown();
}

#[test]
fn heartbeat_timeout_counts_a_suspicion() {
    // A grace far beyond the wait budget: only the heartbeat FD can
    // suspect the crashed server within it.
    let opts = RuntimeOptions {
        link_grace: Duration::from_secs(30),
        fd: FdParams {
            heartbeat_period: Duration::from_millis(10),
            timeout: Duration::from_millis(200),
        },
        ..RuntimeOptions::default()
    };
    let mut cluster = LocalCluster::spawn(complete_digraph(N), opts).unwrap();
    run_checked_round(&cluster, 0);
    cluster.kill(3);
    wait_stats(&cluster, 0, "heartbeat-timeout suspicion", |s| s.suspicions >= 1);
    cluster.shutdown();
}

#[test]
fn crashed_predecessor_counts_one_suspicion() {
    // A crash is reported twice at each survivor: the reader's 50 ms
    // disconnect grace expires first, the 200 ms heartbeat timeout
    // later. The core treats a suspicion as permanent, so the link
    // stats must count the crashed peer once.
    let opts = RuntimeOptions {
        link_grace: Duration::from_millis(50),
        fd: FdParams {
            heartbeat_period: Duration::from_millis(10),
            timeout: Duration::from_millis(200),
        },
        ..RuntimeOptions::default()
    };
    let mut cluster = LocalCluster::spawn(complete_digraph(N), opts).unwrap();
    run_checked_round(&cluster, 0);
    cluster.kill(3);
    wait_stats(&cluster, 0, "suspicion of the crashed server", |s| s.suspicions >= 1);
    // Outlives both the grace and the (adaptive) heartbeat timeout.
    std::thread::sleep(Duration::from_secs(1));
    let s0 = cluster.link_stats(0);
    assert_eq!(s0.suspicions, 1, "one crashed peer, one suspicion: {s0:?}");
    cluster.shutdown();
}

#[test]
fn watermark_saturation_bounds_degraded_queues() {
    let opts = RuntimeOptions {
        link_grace: Duration::from_secs(30),
        link_queue_high: 4,
        link_queue_low: 1,
        ..RuntimeOptions::default()
    };
    let cluster = LocalCluster::spawn(complete_digraph(N), opts).unwrap();
    run_checked_round(&cluster, 0);

    // Hold 0 → 1 down and keep round traffic flowing: the overlay's
    // redundant paths keep agreement alive, while 0's frames for 1 pile
    // into the bounded Degraded queue until the high watermark sheds.
    cluster.link_down(0, 1);
    let mut round = 1u64;
    let deadline = Instant::now() + Duration::from_secs(15);
    while cluster.link_stats(0).shed_frames == 0 {
        assert!(Instant::now() < deadline, "high watermark never reached: queue unbounded?");
        run_checked_round(&cluster, round);
        round += 1;
    }
    let s0 = cluster.link_stats(0);
    assert!(s0.degraded >= 1 && s0.shed_frames >= 1, "{s0:?}");

    // Heal: the (bounded) tail replays, and the deployment keeps its
    // order with zero suspicions — shed frames on one link are routed
    // around by vertex connectivity, exactly like transient loss.
    cluster.link_up(0, 1);
    wait_stats(&cluster, 0, "reconnect after link_up", |s| s.reconnects >= 1);
    run_checked_round(&cluster, round);
    for id in 0..N as u32 {
        assert_eq!(cluster.link_stats(id).suspicions, 0, "server {id}");
    }
    cluster.shutdown();
}

#[test]
fn connect_with_retry_returns_typed_error() {
    // Bind then drop a listener so the port actively refuses.
    let addr = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
    let policy = BackoffPolicy::new(Duration::from_millis(1), Duration::from_millis(4), 7);
    let err = connect_with_retry(addr, 3, &policy).expect_err("nothing is listening");
    assert_eq!(err.attempts, 3);
    let io: std::io::Error = err.into();
    assert!(io.to_string().contains("3 attempts"), "{io}");

    // And the success path: a live listener connects on attempt one.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let live = listener.local_addr().unwrap();
    connect_with_retry(live, 3, &policy).expect("listener is live");
}
