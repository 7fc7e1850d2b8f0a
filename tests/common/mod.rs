//! The nemesis suite's shared checks, used by the four per-family
//! pinned-seed files (`tests/nemesis_{suite,durability,resilience,integrity}.rs`).
//!
//! Each scenario runs the always-on property checker — validity,
//! uniform agreement, integrity, total order (§2.1–2.2) and RSM
//! snapshot convergence at every epoch boundary, and after every
//! kill-all recovery the no-lost-acknowledged-command property — and
//! then [`check_report`] asserts that its fault class really did what it
//! was generated to do (loss dropped messages, a crash rejoined, an
//! overload shed, a rot was detected, ...).
//!
//! **Reproducing a failure:** execution is fully deterministic per
//! seed. A failing case panics with its family and seed; replay it with
//! `Scenario::generate(Family::<family>, seed).run_sim()` or
//! `cargo run -p allconcur-nemesis --example sweep -- <seed> <seed+1>`.
//! With `NEMESIS_WAL_DUMP=<dir>` set, a failing kill-all recovery dumps
//! every server's WAL segments under `<dir>/seed-<seed>/server-<id>/`.

use allconcur_nemesis::{Family, FaultClass, Scenario, ScenarioReport};
use std::ops::Range;

/// Run every seed of `family` in `seeds` on the simulator and hold each
/// report to [`check_report`].
pub fn run_pinned(family: Family, seeds: Range<u64>) {
    for seed in seeds {
        let scenario = Scenario::generate(family, seed);
        assert!(family.classes().contains(&scenario.class), "{scenario} is not {family:?}");
        let report = scenario.run_sim().unwrap_or_else(|e| {
            panic!(
                "{scenario} FAILED: {e}\nreplay deterministically with \
                 `Scenario::generate(Family::{family:?}, {seed}).run_sim()`"
            )
        });
        println!("{scenario}: {report:?}");
        check_report(&scenario, &report);
    }
}

/// The printed-seed replay contract: the same seed yields the same plan
/// and the same report.
pub fn replays_byte_for_byte(family: Family, seeds: &[u64]) {
    for &seed in seeds {
        let a = Scenario::generate(family, seed);
        let b = Scenario::generate(family, seed);
        assert_eq!(a.plan, b.plan, "{family:?} seed {seed} plans diverged");
        assert_eq!(
            a.run_sim().unwrap(),
            b.run_sim().unwrap(),
            "{family:?} seed {seed} executions diverged"
        );
    }
}

/// The per-class assertions: what each fault class must visibly have
/// done, on top of the properties `run_sim` already checked.
fn check_report(scenario: &Scenario, report: &ScenarioReport) {
    assert!(report.rounds > 0, "{scenario} delivered no rounds");
    assert!(report.resolved > 0, "{scenario} resolved no commands");
    match scenario.class {
        FaultClass::PartitionHeal | FaultClass::DelaySpike => {}
        FaultClass::MessageLoss => {
            assert!(report.dropped > 0, "{scenario} injected loss but nothing was dropped");
        }
        FaultClass::CrashRestart | FaultClass::Churn => {
            assert!(report.epochs > 1, "{scenario} never exercised the rejoin path");
        }
        FaultClass::KillAllRecover => {
            assert!(report.recoveries >= 1, "{scenario} never exercised a kill-all recovery");
            assert_eq!(
                report.epochs,
                report.recoveries + 1,
                "{scenario}: every epoch boundary should be a recovery"
            );
        }
        FaultClass::LinkFlap => {
            // Under-grace flaps must be invisible to admission too.
            assert_eq!(report.shed, 0, "{scenario} shed under a plain workload");
        }
        FaultClass::Overload => {
            // The burst is sized to overrun every window in {1, 4, 8}:
            // a shed-free run means admission control never engaged.
            assert!(report.shed > 0, "{scenario} never shed under an open-loop burst");
        }
        FaultClass::BitFlip => {
            // The storm must be real and fully absorbed at the wire:
            // flips counted, nothing leaked into applied state.
            assert!(report.flipped > 0, "{scenario} never flipped a bit");
            assert_eq!(report.quarantines, 0, "{scenario}: a flip leaked past the CRC");
        }
        FaultClass::Divergence => {
            // The full detect → quarantine → rejoin cycle ran.
            assert!(report.quarantines >= 1, "{scenario} never caught the poison");
            assert!(report.rejoins >= 1, "{scenario} never healed the quarantine");
        }
        FaultClass::DiskRot => {
            // Recovery refused the rotted log and rebuilt from peers.
            assert_eq!(report.rotted, 1, "{scenario}: the rot was not detected");
            assert!(report.recoveries >= 1, "{scenario} never recovered");
        }
    }
}
