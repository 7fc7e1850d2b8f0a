//! Soak test: a longer-lived deployment with repeated failures,
//! reconfigurations, and sustained rounds — the closest the test suite
//! gets to the paper's multi-minute Fig. 7 runs. Driven entirely through
//! the `Cluster` facade, including the agreed reconfigurations.

use allconcur::prelude::*;
use allconcur_core::config::FdMode;
use allconcur_core::membership::{build_overlay, plan_reconfiguration};
use allconcur_sim::failure::FailurePlan;
use allconcur_sim::network::{Jitter, NetworkModel};
use allconcur_sim::SimTime;
use bytes::Bytes;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

fn sim_options(seed: u64) -> SimOptions {
    SimOptions {
        network: NetworkModel::ib_verbs().with_jitter(Jitter::Uniform { max_ns: 1_000 }),
        fd_delay: SimTime::from_us(100),
        seed,
        ..SimOptions::default()
    }
}

#[test]
fn thirty_rounds_with_periodic_crashes_and_reconfigs() {
    let model = ReliabilityModel::paper_default();
    let mut n = 16usize;
    let overlay = build_overlay(n, &model, 6.0);
    let mut cluster = Cluster::sim_with(overlay, sim_options(0));
    let mut total_rounds = 0u64;
    let mut crashes = 0usize;

    for epoch in 0..3 {
        // Run rounds, crashing one server partway through each epoch.
        for r in 0..10u64 {
            if r == 4 {
                // Crash the highest live server mid-epoch.
                let victim = *cluster.live_servers().last().expect("nonempty");
                cluster.crash(victim).unwrap();
                crashes += 1;
            }
            let payloads: Vec<Bytes> =
                (0..n).map(|i| Bytes::from(format!("e{epoch}-r{r}-s{i}").into_bytes())).collect();
            let out = cluster
                .run_round(&payloads, TIMEOUT)
                .unwrap_or_else(|e| panic!("epoch {epoch} round {r} failed: {e}"));
            total_rounds += 1;
            // All deliverers agree.
            let reference = out.values().next().expect("someone delivered").clone();
            for (s, d) in &out {
                assert_eq!(
                    d.messages, reference.messages,
                    "divergence at epoch {epoch} round {r} server {s}"
                );
            }
        }
        // Reconfigure: survivors + one joiner on a fresh overlay, agreed
        // by every member (§3's dynamic membership).
        let survivors = cluster.live_servers();
        let plan = plan_reconfiguration(&survivors, &[], 1, &model, 6.0, FdMode::Perfect);
        n = plan.config.n();
        cluster.reconfigure((*plan.config.graph).clone()).unwrap();
        assert_eq!(cluster.n(), n);
        assert_eq!(cluster.live_servers().len(), n, "everyone alive after reconfig");
    }

    assert_eq!(total_rounds, 30);
    assert_eq!(crashes, 3);
    // Net membership: 16 − 3 crashes + 3 joins = 16.
    assert_eq!(n, 16);
}

#[test]
fn nemesis_scenario_on_sim_backend_fixed_seed() {
    // One generated nemesis scenario under a pinned seed — seed 10 is
    // partition+heal at window 8. Fully deterministic: a failure here
    // replays with `Scenario::generate(Family::Classic, 10).run_sim()`.
    let scenario = Scenario::generate(Family::Classic, 10);
    let report = scenario.run_sim().unwrap_or_else(|e| panic!("{scenario} on sim: {e}"));
    assert!(report.rounds > 0, "{scenario}: no rounds agreed");
    assert!(report.resolved > 0, "{scenario}: no commands resolved");
}

#[test]
fn nemesis_scenario_on_tcp_backend_fixed_seed() {
    // The same scenario machinery over real sockets — seed 6 is
    // crash-restart at window 4, the fault family TCP fully supports
    // (crash via node teardown, rejoin via respawn + snapshot
    // catch-up). The tick budget is wall-clock here, so give loopback
    // rounds more room than the simulator needs.
    let scenario =
        Scenario::generate(Family::Classic, 6).with_tick_budget(Duration::from_millis(100));
    let cluster = Cluster::tcp(scenario.overlay()).expect("spawn loopback cluster");
    let report = scenario.run_on(cluster).unwrap_or_else(|e| panic!("{scenario} on tcp: {e}"));
    assert!(report.rounds > 0, "{scenario}: no rounds agreed");
    assert!(report.resolved > 0, "{scenario}: no commands resolved");
    assert!(report.epochs > 1, "{scenario}: the rejoin path never ran");
}

#[test]
fn exponential_failure_plan_replays_from_logged_seed() {
    // §4.2.2's MTTF-driven crash model, reproducible from one logged
    // seed: two runs built from the same seed must produce identical
    // plans *and* identical executions.
    let logged_seed = 0x5eed_cafe;
    let plan = |seed| {
        FailurePlan::exponential_seeded(8, SimTime::from_secs(1), SimTime::from_ms(500), seed)
    };
    assert_eq!(plan(logged_seed).events(), plan(logged_seed).events());

    let run = |seed: u64| {
        let mut cluster =
            allconcur_sim::SimCluster::builder(allconcur_graph::standard::complete_digraph(8))
                .network(NetworkModel::ib_verbs().with_jitter(Jitter::Uniform { max_ns: 2_000 }))
                .fd_detection_delay(SimTime::from_us(100))
                .failures(plan(seed))
                .seed(seed)
                .build();
        let payloads: Vec<Bytes> = (0..8).map(|i| Bytes::from(vec![i as u8; 24])).collect();
        let out = cluster.run_round(&payloads).expect("complete digraph shrugs off the crashes");
        let reference: Vec<(ServerId, Bytes)> =
            out.delivered.values().next().expect("someone delivered").clone();
        for seq in out.delivered.values() {
            assert_eq!(seq, &reference, "agreement under the sampled crash schedule");
        }
        (out.agreement_latency(), out.messages_sent, out.bytes_sent, reference)
    };
    assert_eq!(run(logged_seed), run(logged_seed), "byte-identical replay from the logged seed");
}

#[test]
fn sustained_durable_workload_scrubs_clean_every_epoch() {
    // The online-scrub soak: a durable deployment runs a sustained
    // workload, and after every batch a full read-only scrub of every
    // server's write-ahead log must verify byte-for-byte — frames,
    // epoch tags, round slots, and the newest snapshot. Rot found here
    // (there is none to find on a healthy disk model) would be caught
    // *before* the next crash stakes recovery on the log.
    let n = 6usize;
    let overlay = gs_digraph(n, 3).expect("valid overlay");
    let mut kv = Service::with_durability(
        Cluster::sim_with(overlay, sim_options(42)),
        &KvStore::default(),
        DurabilityStore::memory(n),
        DurabilityConfig::deterministic(2),
    )
    .expect("construct durable service");
    let mut scrubbed_frames = 0u64;
    for batch in 0..6u64 {
        for uid in 0..8u64 {
            let origin = ((batch * 8 + uid) % n as u64) as ServerId;
            let cmd = KvCommand::Put {
                key: (batch * 8 + uid).to_le_bytes().to_vec().into(),
                value: b"soak-scrub".to_vec().into(),
            };
            kv.execute(origin, &cmd, TIMEOUT).expect("durable ack");
        }
        for id in 0..n as ServerId {
            let report = kv
                .scrub_wal(id)
                .expect("durability is on")
                .unwrap_or_else(|e| panic!("batch {batch}: server {id} failed its scrub: {e}"));
            assert!(report.snapshot_ok, "batch {batch}: server {id} snapshot failed verification");
            assert!(report.torn.is_none(), "batch {batch}: phantom torn tail on server {id}");
            scrubbed_frames += report.frames;
        }
    }
    assert!(scrubbed_frames > 0, "the scrub never verified a frame");
}
