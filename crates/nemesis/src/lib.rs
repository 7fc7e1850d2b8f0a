#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # allconcur-nemesis — deterministic fault injection + property checking
//!
//! AllConcur's guarantees hinge on the failure detector and on the
//! overlay's `f < k(G)` vertex connectivity (§2, §5 of the paper); the
//! regimes where the tracking digraphs and the FD actually earn their
//! keep are the *adversarial* ones — partitions, message loss, delay
//! spikes, crash-restart churn. This crate makes those regimes
//! repeatable:
//!
//! * [`NemesisPlan`] — a timed schedule of fault actions (link faults
//!   via the facade's `inject_fault`, crashes, restarts-with-rejoin, FD
//!   suspicions), keyed by workload tick so the same plan drives the
//!   simulated and TCP backends;
//! * [`PropertyChecker`] — consumes every server's recorded A-delivery
//!   stream and asserts the four atomic-broadcast properties (validity,
//!   uniform agreement, integrity, total order) plus RSM snapshot
//!   convergence, after **every** scenario;
//! * [`Scenario`] — seeded composition of topology × round window ×
//!   plan: `Scenario::generate(family, seed)` is fully deterministic, so
//!   any CI failure replays byte-for-byte from its printed family and
//!   seed. Each [`Family`] is one table row — its fault classes and its
//!   round-window stride:
//!   * [`Family::Classic`] — partitions, crash-restart, message loss,
//!     delay spikes, churn;
//!   * [`Family::Durability`] — whole-cluster power losses with
//!     byte-exact torn tail writes and disk-slow fsync spikes against
//!     WAL-backed deployments, recovered from the logs alone and checked
//!     against the no-lost-acknowledged-command property
//!     ([`PropertyViolation::AcknowledgedLost`]) after every recovery;
//!   * [`Family::Resilience`] — transient link flaps that must heal with
//!     zero membership removals
//!     ([`PropertyViolation::MembershipRemovedUnderGrace`]) and open-loop
//!     overload bursts whose every internal shed must surface as a typed
//!     `Busy` ([`PropertyViolation::SilentShed`]);
//!   * [`Family::Integrity`] — wire bit-flip storms (every flip
//!     CRC-detected, never delivered), silent replica poison that the
//!     divergence audit must quarantine and heal
//!     ([`PropertyViolation::QuarantineStuck`]), and durable mid-log WAL
//!     rot that recovery must detect and rebuild from peers — any
//!     corruption leaking past its detection boundary is
//!     [`PropertyViolation::SilentCorruption`].
//!
//! ```
//! use allconcur_nemesis::{Family, Scenario};
//!
//! let scenario = Scenario::generate(Family::Classic, 7);
//! let report = scenario.run_sim().unwrap_or_else(|e| panic!("{scenario} failed: {e}"));
//! assert!(report.rounds > 0);
//! ```

pub mod checker;
pub mod plan;
pub mod scenario;

pub use checker::{uid_command, EpochRecord, PropertyChecker, PropertyViolation};
pub use plan::{NemesisAction, NemesisPlan};
pub use scenario::{Family, FaultClass, Scenario, ScenarioError, ScenarioReport};
