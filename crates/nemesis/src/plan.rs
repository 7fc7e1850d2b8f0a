//! Timed nemesis plans.
//!
//! [`allconcur_sim::failure::FailurePlan`] scripts fail-stop crashes at
//! simulated instants; a [`NemesisPlan`] is its grown form: a schedule of
//! *arbitrary* fault actions — link faults, crashes, restarts-with-rejoin,
//! FD suspicions — keyed by **workload tick** rather than simulated time,
//! so one plan drives the simulated and TCP backends identically (the
//! scenario executor applies each tick's actions before submitting that
//! tick's commands).

use allconcur_cluster::FaultCommand;
use allconcur_core::ServerId;

/// One scheduled nemesis action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NemesisAction {
    /// Inject (or heal/clear) a link-level fault through
    /// [`allconcur_cluster::Cluster::inject_fault`].
    Fault(FaultCommand),
    /// Fail-stop `server` (peers detect it through the backend's FD).
    Crash {
        /// The victim (a server id of the current configuration).
        server: ServerId,
    },
    /// Rejoin `joiners` fresh servers through an agreed reconfiguration:
    /// the executor settles outstanding work, snapshots a surviving
    /// replica, and every member of the new overlay — survivor or joiner
    /// — restores from that snapshot (the crash-*restart* path; server
    /// ids renumber on the new overlay, so a restart is membership
    /// returning, not a pid coming back).
    Restart {
        /// Servers to add alongside the survivors.
        joiners: usize,
    },
    /// Inject a (possibly false) FD suspicion at `at` against `suspect`.
    Suspect {
        /// The server whose local FD raises the suspicion.
        at: ServerId,
        /// The suspected server.
        suspect: ServerId,
    },
    /// Power-fail the **whole deployment** at once, then recover it from
    /// its write-ahead logs alone. Requires a durability-enabled
    /// scenario ([`crate::Family::Durability`]) and a
    /// rebuildable backend (`run_sim`); the executor accounts every
    /// outstanding command at the crash instant (durably acknowledged →
    /// resolved, anything else → a typed loss), injects the scheduled
    /// torn writes, crashes every virtual disk (unsynced bytes vanish),
    /// and rebuilds the service with `Service::recover`.
    KillAllAndRecover {
        /// Torn-write injection: for each `(server, keep)`, every WAL
        /// segment with unsynced bytes on that server's disk keeps only
        /// `keep % unsynced_len` bytes of its unsynced tail — a
        /// byte-exact partial write for recovery to trim.
        torn: Vec<(ServerId, u64)>,
    },
    /// Toggle a disk-slow fault on `server`: while on, its fsyncs stall
    /// (`sync` completes nothing), so the server's durable watermark
    /// freezes while appends continue — group commit must ride the
    /// other servers' disks.
    DiskSlow {
        /// The server whose disk stalls.
        server: ServerId,
        /// `true` to stall fsyncs, `false` to restore them.
        on: bool,
    },
    /// Silently corrupt `server`'s replica state *outside* agreement (a
    /// stray write no round carried — the model for bit rot in applied
    /// state or a non-deterministic apply). The divergence audit must
    /// catch it at the next digest cross-check, quarantine the replica
    /// with a typed `Diverged`, and heal it back in from a peer
    /// snapshot; [`crate::PropertyChecker::check_quarantine_converges`]
    /// asserts the full detect → quarantine → rejoin cycle.
    PoisonReplica {
        /// The replica whose state is silently mutated.
        server: ServerId,
    },
    /// Durably flip one bit inside `server`'s oldest write-ahead-log
    /// segment — mid-log rot on *acknowledged* history (survives the
    /// disk's crash semantics, unlike a torn tail). Requires a
    /// durability-enabled scenario; only observable at the next
    /// [`NemesisAction::KillAllAndRecover`], where recovery must refuse
    /// to trim the rotted log and rebuild the server from its peers'
    /// chunked catch-up instead.
    DiskRot {
        /// The server whose log rots.
        server: ServerId,
        /// Absolute bit offset into the oldest segment (the generator
        /// keeps it inside the first frame's checksummed region).
        bit: u64,
    },
}

/// A schedule of nemesis actions keyed by workload tick (applied before
/// that tick's submissions), kept sorted by tick.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NemesisPlan {
    steps: Vec<(u64, NemesisAction)>,
}

impl NemesisPlan {
    /// The empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `action` at `tick` (builder style). Actions sharing a
    /// tick apply in insertion order.
    pub fn at(mut self, tick: u64, action: NemesisAction) -> Self {
        let pos = self.steps.partition_point(|&(t, _)| t <= tick);
        self.steps.insert(pos, (tick, action));
        self
    }

    /// The actions scheduled at exactly `tick`, in order.
    pub fn actions_at(&self, tick: u64) -> impl Iterator<Item = &NemesisAction> {
        let start = self.steps.partition_point(|&(t, _)| t < tick);
        self.steps[start..].iter().take_while(move |&&(t, _)| t == tick).map(|(_, a)| a)
    }

    /// The latest scheduled tick (0 for an empty plan).
    pub fn last_tick(&self) -> u64 {
        self.steps.last().map(|&(t, _)| t).unwrap_or(0)
    }

    /// Every step, in tick order.
    pub fn steps(&self) -> &[(u64, NemesisAction)] {
        &self.steps
    }

    /// Number of scheduled actions.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_by_tick_and_preserves_same_tick_order() {
        let plan = NemesisPlan::new()
            .at(5, NemesisAction::Restart { joiners: 1 })
            .at(2, NemesisAction::Crash { server: 3 })
            .at(5, NemesisAction::Crash { server: 0 })
            .at(2, NemesisAction::Fault(FaultCommand::HealPartitions));
        assert_eq!(plan.len(), 4);
        let at2: Vec<_> = plan.actions_at(2).collect();
        assert_eq!(at2.len(), 2);
        assert_eq!(at2[0], &NemesisAction::Crash { server: 3 });
        assert_eq!(at2[1], &NemesisAction::Fault(FaultCommand::HealPartitions));
        let at5: Vec<_> = plan.actions_at(5).collect();
        assert_eq!(at5[0], &NemesisAction::Restart { joiners: 1 });
        assert_eq!(plan.actions_at(3).count(), 0);
        assert_eq!(plan.last_tick(), 5);
    }
}
