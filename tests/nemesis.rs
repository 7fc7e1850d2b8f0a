//! The nemesis suite's generator checks and scripted schedules.
//!
//! The pinned seeds themselves run in one file per family
//! (`tests/nemesis_{suite,durability,resilience,integrity}.rs`, sharing
//! `tests/common`). This file pins what they run:
//! `pinned_plans_are_byte_identical` folds every generated scenario of
//! [`PINNED`] into one FNV-1a digest, so any change to the generator
//! that moves a single pinned plan fails loudly, and the matrix test
//! checks that each family's first seeds span its classes × windows.
//! Two hand-written scenarios cover schedules no generator produces.

use allconcur::prelude::*;
use allconcur_nemesis::{Family, FaultClass, NemesisAction, NemesisPlan, Scenario};
use std::collections::BTreeSet;
use std::ops::Range;
use std::time::Duration;

/// The pinned CI seeds, as the per-family files run them. Classic 0..30
/// is two passes over its 5 classes × 3 windows matrix; each other
/// family's ten seeds cycle its classes across the {1, 4, 8}
/// round-window cycle (and, for durability, one or two power losses
/// per plan).
const PINNED: [(Family, Range<u64>); 4] = [
    (Family::Classic, 0..30),
    (Family::Durability, 0..10),
    (Family::Resilience, 0..10),
    (Family::Integrity, 0..10),
];

#[test]
fn pinned_plans_are_byte_identical() {
    // FNV-1a 64 over the Debug form of every pinned scenario, in PINNED
    // order: any generator change that moves one pinned plan moves this.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (family, seeds) in PINNED {
        for seed in seeds {
            for byte in format!("{:?}", Scenario::generate(family, seed)).bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    assert_eq!(hash, 0xc8b7_a91e_7d6d_0164, "a pinned scenario changed: {hash:#018x}");
}

#[test]
fn generated_matrix_spans_all_classes_and_windows() {
    // For every family, the first `classes × 3` seeds cover each of its
    // fault classes at every round window in {1, 4, 8}.
    let matrix: [(Family, &[&str]); 4] = [
        (
            Family::Classic,
            &["partition+heal", "crash-restart", "message-loss", "delay-spike", "churn"],
        ),
        (Family::Durability, &["kill-all-recover"]),
        (Family::Resilience, &["link-flap", "overload"]),
        (Family::Integrity, &["bit-flip", "divergence", "disk-rot"]),
    ];
    for (family, classes) in matrix {
        let span = classes.len() * 3;
        let combos: BTreeSet<(String, usize)> = (0..span as u64)
            .map(|s| {
                let sc = Scenario::generate(family, s);
                (sc.class.to_string(), sc.window)
            })
            .collect();
        assert_eq!(combos.len(), span, "{family:?}: {combos:?}");
        for window in [1usize, 4, 8] {
            for class in classes {
                assert!(
                    combos.contains(&(class.to_string(), window)),
                    "{family:?} misses {class} @ W={window}"
                );
            }
        }
    }
}

#[test]
fn scripted_partition_with_pipelined_rounds() {
    // A hand-written plan (no generator): deep window, long asymmetric +
    // symmetric partition spanning most of the workload, healed late.
    // Everything submitted during the partition must still agree.
    let plan = NemesisPlan::new()
        .at(1, NemesisAction::Fault(FaultCommand::Isolate { from: 0, to: 1 }))
        .at(
            2,
            NemesisAction::Fault(FaultCommand::Partition {
                groups: vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]],
            }),
        )
        .at(9, NemesisAction::Fault(FaultCommand::HealPartitions));
    let scenario = Scenario {
        seed: 0,
        n: 8,
        window: 8,
        ticks: 12,
        class: FaultClass::PartitionHeal,
        plan,
        tick_budget: Duration::from_millis(3),
        burst: 1,
        admission: None,
        durability: None,
        audit_interval: None,
    };
    let report = scenario.run_sim().unwrap_or_else(|e| panic!("scripted partition: {e}"));
    assert_eq!(report.resolved, 12 * 8, "every command resolved across the partition");
    assert_eq!(report.failed, 0);
}

#[test]
fn scripted_loss_and_reorder_combination() {
    // Loss and reordering on the same overlay simultaneously — the
    // combination neither generated class produces on its own.
    let overlay = gs_digraph(8, 3).unwrap();
    let (a, b) = (0u32, overlay.successors(0)[0]);
    let (c, d) = (4u32, overlay.successors(4)[1]);
    let plan = NemesisPlan::new()
        .at(1, NemesisAction::Fault(FaultCommand::Drop { from: a, to: b, ppm: 600_000 }))
        .at(1, NemesisAction::Fault(FaultCommand::Reorder { from: c, to: d, burst: 8 }))
        .at(8, NemesisAction::Fault(FaultCommand::ClearLinkFaults));
    let scenario = Scenario {
        seed: 1,
        n: 8,
        window: 4,
        ticks: 10,
        class: FaultClass::MessageLoss,
        plan,
        tick_budget: Duration::from_millis(3),
        burst: 1,
        admission: None,
        durability: None,
        audit_interval: None,
    };
    let report = scenario.run_sim().unwrap_or_else(|e| panic!("loss+reorder: {e}"));
    assert!(report.dropped > 0, "the lossy link saw no traffic");
    assert_eq!(report.resolved, 10 * 8);
}
