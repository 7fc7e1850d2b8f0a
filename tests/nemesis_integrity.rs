//! Integrity nemesis seeds: wire bit-flip storms, silent replica
//! poison and durable mid-log WAL rot.
//!
//! `seed % 3` cycles the three classes: every flip must be caught by the
//! frame CRC, a poisoned replica must be quarantined and healed from a
//! peer snapshot, and a rotted log must be rebuilt from peers with
//! nothing acknowledged lost. Ten pinned seeds; replay with
//! `Scenario::generate(Family::Integrity, seed).run_sim()`.

mod common;

use allconcur_nemesis::Family;

#[test]
fn pinned_integrity_seeds() {
    common::run_pinned(Family::Integrity, 0..10);
}

#[test]
fn integrity_replays_byte_for_byte() {
    // One seed per class.
    common::replays_byte_for_byte(Family::Integrity, &[0, 1, 2]);
}
