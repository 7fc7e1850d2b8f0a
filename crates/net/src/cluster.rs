//! A full AllConcur deployment on loopback — every server a
//! [`crate::runtime::NodeRuntime`] in the current process, wired over
//! real TCP/UDP sockets on 127.0.0.1.
//!
//! This is the harness behind the TCP integration tests, the
//! `quickstart` example, and the TCP rows of the benchmark tables.

use crate::event_loop::EventLoopPool;
use crate::link::LinkStatsSnapshot;
use crate::runtime::{Delivery, NodeRuntime, RuntimeOptions};
use allconcur_core::config::{Config, FdMode};
use allconcur_core::ServerId;
use allconcur_graph::Digraph;
use bytes::Bytes;
use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

/// A local multi-server deployment.
///
/// Every node shares one [`EventLoopPool`] sized `min(cores, n)`, so
/// the whole cluster runs on O(cores) threads regardless of `n` and the
/// overlay degree.
pub struct LocalCluster {
    nodes: Vec<Option<NodeRuntime>>,
    cfg: Config,
    pool: Arc<EventLoopPool>,
}

impl LocalCluster {
    /// Spawn one server per overlay vertex on ephemeral loopback ports.
    pub fn spawn(graph: Digraph, opts: RuntimeOptions) -> std::io::Result<LocalCluster> {
        let n = graph.order();
        let k = allconcur_graph::connectivity::vertex_connectivity(&graph);
        let cfg = Config {
            graph: Arc::new(graph),
            resilience: k.saturating_sub(1),
            fd_mode: FdMode::Perfect,
            round_window: opts.round_window.max(1),
        };

        // Bind every socket before starting any runtime, so successor
        // connections find listening peers immediately.
        let mut listeners = Vec::with_capacity(n);
        let mut udps = Vec::with_capacity(n);
        let mut tcp_addrs: Vec<SocketAddr> = Vec::with_capacity(n);
        let mut udp_addrs: Vec<SocketAddr> = Vec::with_capacity(n);
        for _ in 0..n {
            let l = TcpListener::bind("127.0.0.1:0")?;
            tcp_addrs.push(l.local_addr()?);
            listeners.push(l);
            let u = UdpSocket::bind("127.0.0.1:0")?;
            udp_addrs.push(u.local_addr()?);
            udps.push(u);
        }

        // One reactor per core (never more than one per node): the
        // event loops multiplex every node's sockets and timers, so
        // thread count stays O(cores) regardless of n and d.
        let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
        let pool = EventLoopPool::new(cores.min(n))?;

        let mut nodes = Vec::with_capacity(n);
        // Connections are non-blocking and retried under backoff, so
        // registration order is cosmetic — every listener is already
        // bound above.
        for (i, (listener, udp)) in listeners.into_iter().zip(udps).enumerate() {
            let node = NodeRuntime::start_on(
                &pool,
                i as ServerId,
                cfg.clone(),
                listener,
                udp,
                tcp_addrs.clone(),
                udp_addrs.clone(),
                opts,
            )?;
            nodes.push(Some(node));
        }
        Ok(LocalCluster { nodes, cfg, pool })
    }

    /// Number of configured servers.
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// Number of reactor threads the shared event-loop pool runs on.
    pub fn loop_threads(&self) -> usize {
        self.pool.threads()
    }

    /// The shared configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Submit `payload` as server `id`'s message for its current round.
    /// Returns `false` when the server is dead or its protocol input
    /// queue is saturated (backpressure) — the payload was not
    /// accepted.
    #[must_use = "a false return means the payload was shed, not submitted"]
    pub fn broadcast(&self, id: ServerId, payload: Bytes) -> bool {
        match &self.nodes[id as usize] {
            Some(node) => node.broadcast(payload),
            None => false,
        }
    }

    /// Non-blocking receive of the next delivery at `id`.
    pub fn try_recv_delivery(&self, id: ServerId) -> Option<Delivery> {
        self.nodes[id as usize].as_ref()?.try_recv_delivery()
    }

    /// Inject a failure suspicion at server `at`, as if its local FD had
    /// suspected `suspected`.
    pub fn suspect(&self, at: ServerId, suspected: ServerId) {
        if let Some(node) = &self.nodes[at as usize] {
            node.inject_suspicion(suspected);
        }
    }

    /// Adjust every running server's round-pipelining window.
    pub fn set_round_window(&self, window: usize) {
        for node in self.nodes.iter().flatten() {
            node.set_round_window(window);
        }
    }

    /// Drop protocol frames on the directed link `from → to` with
    /// probability `ppm / 1e6` (`0` clears the fault). The drop happens
    /// in `from`'s writer path; heartbeats and the TCP connection are
    /// unaffected — this injects message loss, not a disconnect.
    pub fn set_link_drop(&self, from: ServerId, to: ServerId, ppm: u32) {
        if let Some(node) = &self.nodes[from as usize] {
            node.set_link_drop(to, ppm);
        }
    }

    /// Corrupt protocol frames on the directed link `from → to` with
    /// probability `ppm / 1e6` (`0` clears the fault): one bit of each
    /// sampled frame is flipped in `from`'s writer path. The receiver's
    /// CRC check rejects the frame and the link heals through the
    /// reader-grace/reconnect path — no corrupted payload is delivered.
    pub fn set_link_flip(&self, from: ServerId, to: ServerId, ppm: u32) {
        if let Some(node) = &self.nodes[from as usize] {
            node.set_link_flip(to, ppm);
        }
    }

    /// Fault injection: sever the directed link `from → to` and hold it
    /// down until [`LocalCluster::link_up`]. Outbound frames buffer in
    /// `from`'s bounded Degraded queue for replay on heal.
    pub fn link_down(&self, from: ServerId, to: ServerId) {
        if let Some(node) = &self.nodes[from as usize] {
            node.link_down(to);
        }
    }

    /// Fault injection: sever `from → to` for `down_for`, then
    /// auto-heal and reconnect.
    pub fn link_flap(&self, from: ServerId, to: ServerId, down_for: Duration) {
        if let Some(node) = &self.nodes[from as usize] {
            node.link_flap(to, down_for);
        }
    }

    /// Fault injection: heal a link held down by
    /// [`LocalCluster::link_down`] / [`LocalCluster::link_flap`].
    pub fn link_up(&self, from: ServerId, to: ServerId) {
        if let Some(node) = &self.nodes[from as usize] {
            node.link_up(to);
        }
    }

    /// Resilience counters of server `id` (zeros for a dead server).
    pub fn link_stats(&self, id: ServerId) -> LinkStatsSnapshot {
        self.nodes[id as usize].as_ref().map(|n| n.link_stats()).unwrap_or_default()
    }

    /// Emulate a fail-stop crash of `id`: its reactor drops it, sockets
    /// close, heartbeats cease. Peers detect via disconnect/FD.
    pub fn kill(&mut self, id: ServerId) {
        if let Some(node) = self.nodes[id as usize].take() {
            node.shutdown();
        }
    }

    /// [`LocalCluster::kill`], returning the deliveries `id` produced
    /// that the application had not yet received (drained after the
    /// reactor has torn the node down, so none are lost in the teardown).
    pub fn kill_and_drain(&mut self, id: ServerId) -> Vec<Delivery> {
        match self.nodes[id as usize].take() {
            Some(node) => node.shutdown_and_drain(),
            None => Vec::new(),
        }
    }

    /// Whether `id` is still running.
    pub fn is_running(&self, id: ServerId) -> bool {
        self.nodes[id as usize].is_some()
    }

    /// Graceful shutdown of every remaining server.
    pub fn shutdown(mut self) {
        for node in self.nodes.iter_mut() {
            if let Some(n) = node.take() {
                n.shutdown();
            }
        }
    }
}

impl Drop for LocalCluster {
    fn drop(&mut self) {
        for node in self.nodes.iter_mut() {
            if let Some(n) = node.take() {
                n.shutdown();
            }
        }
    }
}
