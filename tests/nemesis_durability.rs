//! Durability nemesis seeds: whole-cluster power losses with torn tail
//! writes and disk-slow fsync spikes, recovered from the write-ahead
//! logs alone.
//!
//! After each recovery the checker asserts that every command
//! acknowledged before the power loss is in the recovered state and
//! that the recovered replicas converge. Ten pinned seeds, one or two
//! power losses each; replay with
//! `Scenario::generate(Family::Durability, seed).run_sim()`.

mod common;

use allconcur_nemesis::Family;

#[test]
fn pinned_kill_all_and_recover_seeds() {
    common::run_pinned(Family::Durability, 0..10);
}

#[test]
fn durability_replays_byte_for_byte() {
    common::replays_byte_for_byte(Family::Durability, &[2, 7]);
}
