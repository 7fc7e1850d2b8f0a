//! Classic nemesis seeds: partition+heal, crash-restart, message loss,
//! delay spikes and churn on the discrete-event simulator.
//!
//! Thirty pinned seeds are two full passes over the 5 fault classes ×
//! {1, 4, 8} round-window matrix; `common::check_report` holds each
//! class's evidence. Replay a failing seed with
//! `Scenario::generate(Family::Classic, seed).run_sim()`.

mod common;

use allconcur_nemesis::Family;

#[test]
fn seeded_scenarios_first_matrix_pass() {
    // Seeds 0..15: one of each fault class × window ∈ {1, 4, 8}.
    common::run_pinned(Family::Classic, 0..15);
}

#[test]
fn seeded_scenarios_second_matrix_pass() {
    // Seeds 15..30: a second independent pass (different sizes, victims,
    // link choices, rates, and timings).
    common::run_pinned(Family::Classic, 15..30);
}

#[test]
fn failing_seed_replays_byte_for_byte() {
    common::replays_byte_for_byte(Family::Classic, &[3, 11, 24]);
}
