//! Resilience nemesis seeds: transient link flaps and open-loop
//! overload.
//!
//! Even seeds flap overlay links well inside the grace budget and must
//! end with zero membership removals; odd seeds burst submissions
//! against a tight admission cap and must shed every surplus command as
//! a typed `Busy`. Ten pinned seeds; replay with
//! `Scenario::generate(Family::Resilience, seed).run_sim()`.

mod common;

use allconcur_nemesis::Family;

#[test]
fn pinned_resilience_seeds() {
    common::run_pinned(Family::Resilience, 0..10);
}

#[test]
fn resilience_replays_byte_for_byte() {
    common::replays_byte_for_byte(Family::Resilience, &[4, 5]);
}
