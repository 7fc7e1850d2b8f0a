#![warn(missing_docs)]
#![deny(deprecated)]
//! # AllConcur — leaderless concurrent atomic broadcast
//!
//! Umbrella crate re-exporting the full AllConcur stack. See the README
//! for an architecture overview and `DESIGN.md` for the paper-to-module
//! map.
//!
//! * [`graph`] — overlay digraphs: GS(n,d), binomial graphs, connectivity,
//!   fault diameter, reliability (§2.1.1, §4.4 of the paper);
//! * [`core`] — the AllConcur protocol itself: Algorithm 1 as a
//!   transport-agnostic state machine (§3);
//! * [`sim`] — discrete-event LogP simulator and benchmarking harness
//!   (§4, §5);
//! * [`net`] — sockets-based TCP transport and local cluster runtime (§5);
//! * [`cluster`] — the unified [`cluster::Cluster`] facade: one
//!   submit/deliver API over the simulated and TCP transports;
//! * [`rsm`] — the typed [`rsm::Service`] layer: replicated state
//!   machines with typed commands/responses, snapshot catch-up, and
//!   linearizable reads (§1's coordination services);
//! * [`durability`] — per-server write-ahead log with group commit,
//!   crash recovery from disk (whole-cluster power loss included), and
//!   chunked incremental catch-up; enable it with
//!   [`rsm::Service::with_durability`] and a `DurabilityConfig` — typed
//!   responses then become *durable* acknowledgments, withheld until
//!   the command's round is fsynced on at least one server;
//! * [`nemesis`] — deterministic fault-injection scenarios (partitions,
//!   loss, delay spikes, crash-restart churn) with an always-on
//!   atomic-broadcast property checker, replayable from a single seed;
//! * [`baselines`] — leader-based atomic broadcast (Libpaxos stand-in) and
//!   unreliable allgather (§4.5, §5).
//!
//! ## Quickstart
//!
//! ```
//! use allconcur::prelude::*;
//! use bytes::Bytes;
//! use std::time::Duration;
//!
//! // 8 servers on the GS(8,3) overlay of Fig. 1b, simulated over the
//! // paper's TCP LogP parameters; every server broadcasts one request.
//! // Swap `Cluster::sim` for `Cluster::tcp` and the same code runs over
//! // real sockets on loopback.
//! let overlay = gs_digraph(8, 3).unwrap();
//! let mut cluster = Cluster::sim(overlay);
//! let payloads: Vec<Bytes> = (0..8u8).map(|i| Bytes::from(vec![i; 64])).collect();
//! let round = cluster.run_round(&payloads, Duration::from_secs(10)).unwrap();
//! // Atomic broadcast: every server delivers the same 8 messages, in the
//! // same order.
//! let reference = &round[&0];
//! assert_eq!(reference.messages.len(), 8);
//! for delivery in round.values() {
//!     assert_eq!(delivery.messages, reference.messages);
//! }
//! ```
//!
//! The facade's streaming surface ([`cluster::Cluster::submit`] /
//! [`cluster::Cluster::deliveries`]) supports pipelined rounds, crash
//! and suspicion injection, and agreed reconfiguration — see the
//! `allconcur-cluster` crate docs.
//!
//! ## Typed replicated state machines
//!
//! Applications should not hand-pump deliveries: the [`rsm::Service`]
//! layer owns the cluster, encodes/decodes commands through a typed
//! [`core::replica::Codec`], and correlates each submitted command with
//! its typed response:
//!
//! ```
//! use allconcur::prelude::*;
//! use std::time::Duration;
//!
//! let cluster = Cluster::sim(gs_digraph(8, 3).unwrap());
//! let mut kv = Service::new(cluster, &KvStore::default()).unwrap();
//! let put = KvCommand::Put { key: b"k".to_vec().into(), value: b"v".to_vec().into() };
//! let handle = kv.submit(0, &put).unwrap();
//! assert_eq!(kv.wait(&handle, Duration::from_secs(10)).unwrap(), KvResponse::Ack);
//! kv.sync(Duration::from_secs(10)).unwrap(); // barrier: all replicas caught up
//! assert_eq!(kv.query_local(7).unwrap().get_local(b"k"), Some(&b"v"[..]));
//! ```

pub use allconcur_baselines as baselines;
pub use allconcur_cluster as cluster;
pub use allconcur_core as core;
pub use allconcur_durability as durability;
pub use allconcur_graph as graph;
pub use allconcur_nemesis as nemesis;
pub use allconcur_net as net;
pub use allconcur_rsm as rsm;
pub use allconcur_sim as sim;

/// Convenience re-exports covering the common entry points.
pub mod prelude {
    pub use allconcur_cluster::{
        Cluster, ClusterError, Delivery, FaultCommand, SimOptions, SimTransport, SubmitHandle,
        TcpTransport, Transport,
    };
    pub use allconcur_core::{
        config::Config,
        replica::{
            Codec, DecodeError, KvCodec, KvCommand, KvResponse, KvStore, Replica, RsmError,
            StateMachine,
        },
        server::{Action, Event, Server},
        ServerId,
    };
    pub use allconcur_durability::{
        rot_error, DurabilityConfig, DurabilityStore, FileDisk, MemDisk, MidLogRot, ScrubReport,
        VirtualDisk, Wal,
    };
    pub use allconcur_graph::{
        binomial::binomial_graph, gs::gs_digraph, Digraph, ReliabilityModel,
    };
    pub use allconcur_nemesis::{
        Family, NemesisAction, NemesisPlan, PropertyChecker, Scenario, ScenarioReport,
    };
    pub use allconcur_rsm::{
        AdmissionConfig, CommandHandle, IntegrityStats, RecoveryReport, Service, ServiceError,
    };
    pub use allconcur_sim::{
        harness::{RoundOutcome, SimCluster},
        network::NetworkModel,
    };
    pub use bytes::Bytes;
}
