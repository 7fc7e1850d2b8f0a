//! Per-layer replay of a recorded agreed stream through the layers'
//! public functions, timed one layer at a time on this thread.
//!
//! The live run cannot be timed layer by layer without instrumenting
//! the library, so the traced run records server 0's delivery stream
//! and this module re-executes the same protocol work: the lockstep
//! `core` flood (as in `core_rounds`), frame encoding, frame parsing
//! with CRC, `rsm` decode and apply, and WAL append and fsync.

use crate::alloc_count::{allocs, set_counting};
use crate::verify::stream_hash;
use allconcur_core::config::Config;
use allconcur_core::delivery::Delivery;
use allconcur_core::message::Message;
use allconcur_core::replica::{KvStore, Replica};
use allconcur_core::server::{Action, Event, Server};
use allconcur_core::wire::{crc32, FRAME_HEADER_BYTES};
use allconcur_core::ServerId;
use allconcur_durability::{DurabilityConfig, FileDisk, Wal};
use allconcur_graph::Digraph;
use allconcur_net::codec::{encode_frame, FrameReader};
use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Per-round layer costs of a replayed stream.
#[derive(Debug, Clone, Default)]
pub struct Replayed {
    /// Rounds replayed.
    pub rounds: u64,
    /// Hash of server 0's replayed delivery stream.
    pub core_hash: u64,
    /// Hash of the recorded stream over the same rounds.
    pub live_hash: u64,
    /// Lockstep `Server::handle_into` for all servers, µs/round.
    pub core_us: f64,
    /// Protocol events fed, per round.
    pub core_events: f64,
    /// `Send` actions, per round.
    pub core_sends: f64,
    /// Allocations in the lockstep loop, per round.
    pub core_allocs: f64,
    /// Frames on the wire (one per `Send`), per round.
    pub frames: f64,
    /// Wire bytes, per round.
    pub frame_bytes: f64,
    /// `codec::encode_frame`, once per distinct message per sender, µs/round.
    pub encode_us: f64,
    /// `FrameReader::read_frame` over every received frame, µs/round.
    pub read_us: f64,
    /// Allocations per parsed frame.
    pub read_allocs_per_frame: f64,
    /// `wire::crc32` over every encoded and every received frame body, µs/round.
    pub crc_us: f64,
    /// One `decode_round` plus `n` `apply_decoded`, µs/round.
    pub apply_us: f64,
    /// Commands per round.
    pub cmds: f64,
    /// `Wal::append` on every server, µs/round (durable workloads).
    pub append_us: f64,
    /// WAL bytes appended on every server, per round.
    pub wal_bytes: f64,
    /// Individual `Wal::sync` latencies, µs.
    pub fsync_us: Vec<f64>,
}

impl Replayed {
    /// CPU of the replayed layers, µs/round. CRC is part of encode and
    /// read, and fsync is waiting, so neither is added again.
    pub fn layers_us(&self) -> f64 {
        self.core_us + self.encode_us + self.read_us + self.apply_us + self.append_us
    }
}

/// The lockstep cluster of bare `Server`s.
struct Lockstep {
    servers: Vec<Server>,
    inbox: VecDeque<(ServerId, ServerId, Message)>,
    scratch: Vec<Action>,
    events: u64,
    sends: u64,
    /// `(from, to, msg)` of every send, when recording.
    record: Option<Vec<(ServerId, ServerId, Message)>>,
    /// Server 0's deliveries.
    delivered: Vec<Delivery>,
}

impl Lockstep {
    fn new(graph: &Digraph, window: usize) -> Lockstep {
        let k = allconcur_graph::connectivity::vertex_connectivity(graph);
        let cfg =
            Config::new(Arc::new(graph.clone()), k.saturating_sub(1)).with_round_window(window);
        Lockstep {
            servers: (0..graph.order() as ServerId).map(|i| Server::new(cfg.clone(), i)).collect(),
            inbox: VecDeque::new(),
            scratch: Vec::new(),
            events: 0,
            sends: 0,
            record: None,
            delivered: Vec::new(),
        }
    }

    fn feed(&mut self, id: ServerId, event: Event) {
        self.events += 1;
        self.scratch.clear();
        self.servers[id as usize].handle_into(event, &mut self.scratch);
        for action in self.scratch.drain(..) {
            match action {
                Action::Send { to, msg } => {
                    self.sends += 1;
                    if let Some(rec) = &mut self.record {
                        rec.push((id, to, msg.clone()));
                    }
                    self.inbox.push_back((id, to, msg));
                }
                Action::Deliver { round, messages } => {
                    if id == 0 {
                        self.delivered.push(Delivery { round, messages });
                    }
                }
            }
        }
    }

    /// One round: every origin A-broadcasts its recorded payload, then
    /// the flood drains.
    fn round(&mut self, d: &Delivery) {
        for (origin, payload) in &d.messages {
            self.feed(*origin, Event::ABroadcast(payload.clone()));
        }
        while let Some((from, to, msg)) = self.inbox.pop_front() {
            self.feed(to, Event::Receive { from, msg });
        }
    }
}

/// Replay `stream` (server 0's rounds `0..`, every round carrying all
/// `n` origins) on GS overlay `graph` with round window `window`.
/// `wal` holds `(directory, live fsyncs per server per round)` for
/// durable workloads.
pub fn replay(
    stream: &[Delivery],
    graph: &Digraph,
    window: usize,
    wal: Option<(&Path, f64)>,
) -> Result<Replayed, String> {
    let n = graph.order();
    if stream.is_empty() {
        return Err("no recorded rounds to replay".into());
    }
    if let Some(d) = stream.iter().find(|d| d.messages.len() != n) {
        return Err(format!("round {} was delivered with {} of {n} origins; a failure-free replay cannot reproduce it", d.round, d.messages.len()));
    }
    let out = Replayed {
        rounds: stream.len() as u64,
        live_hash: stream_hash(stream),
        ..Replayed::default()
    };

    set_counting(true);
    let result = replay_layers(stream, graph, window, wal, out);
    set_counting(false);
    result
}

fn replay_layers(
    stream: &[Delivery],
    graph: &Digraph,
    window: usize,
    wal: Option<(&Path, f64)>,
    mut out: Replayed,
) -> Result<Replayed, String> {
    let n = graph.order();
    let rounds = stream.len() as f64;
    // core: timed lockstep, as in `core_rounds`.
    let mut timed = Lockstep::new(graph, window);
    let a0 = allocs();
    let t0 = Instant::now();
    for d in stream {
        timed.round(d);
    }
    out.core_us = us(t0) / rounds;
    out.core_allocs = (allocs() - a0) as f64 / rounds;
    out.core_events = timed.events as f64 / rounds;
    out.core_sends = timed.sends as f64 / rounds;
    out.core_hash = stream_hash(&timed.delivered);
    drop(timed);

    // net + wire: a second, untimed lockstep yields each round's sends.
    let mut sends = Lockstep::new(graph, window);
    sends.record = Some(Vec::new());
    let mut reader = FrameReader::new();
    let (mut encode_ns, mut read_ns, mut crc_ns) = (0u128, 0u128, 0u128);
    let (mut frames, mut frame_bytes, mut read_allocs) = (0u64, 0u64, 0u64);
    let mut wire: Vec<u8> = Vec::new();
    let mut bodies: Vec<bytes::Bytes> = Vec::new();
    for d in stream {
        sends.round(d);
        let record = sends.record.as_mut().map(std::mem::take).unwrap_or_default();
        // Encode once per distinct consecutive message per sender, as
        // the reactor's one-entry frame cache does.
        let t = Instant::now();
        let mut last: Option<(ServerId, &Message, bytes::Bytes)> = None;
        let mut encoded: Vec<bytes::Bytes> = Vec::with_capacity(record.len());
        for (from, _, msg) in &record {
            let frame = match &last {
                Some((f, m, frame)) if f == from && *m == msg => frame.clone(),
                _ => {
                    let frame = encode_frame(msg).map_err(|e| format!("encode: {e}"))?;
                    last = Some((*from, msg, frame.clone()));
                    bodies.push(frame.clone());
                    frame
                }
            };
            encoded.push(frame);
        }
        encode_ns += t.elapsed().as_nanos();
        // Every send is one frame on one link; parse them all back.
        wire.clear();
        for f in &encoded {
            wire.extend_from_slice(f);
        }
        frames += encoded.len() as u64;
        frame_bytes += wire.len() as u64;
        let mut src: &[u8] = &wire;
        let a0 = allocs();
        let t = Instant::now();
        for _ in 0..encoded.len() {
            match reader.read_frame(&mut src) {
                Ok(Some(msg)) => {
                    black_box(msg);
                }
                other => return Err(format!("frame parse failed: {other:?}")),
            }
        }
        read_ns += t.elapsed().as_nanos();
        read_allocs += allocs() - a0;
        // CRC alone: once per encoded body and once per received frame.
        let t = Instant::now();
        for f in bodies.iter().chain(encoded.iter()) {
            black_box(crc32(&f[FRAME_HEADER_BYTES..]));
        }
        crc_ns += t.elapsed().as_nanos();
        bodies.clear();
    }
    out.encode_us = encode_ns as f64 / 1e3 / rounds;
    out.read_us = read_ns as f64 / 1e3 / rounds;
    out.crc_us = crc_ns as f64 / 1e3 / rounds;
    out.frames = frames as f64 / rounds;
    out.frame_bytes = frame_bytes as f64 / rounds;
    out.read_allocs_per_frame = read_allocs as f64 / frames.max(1) as f64;
    drop(sends);

    // rsm: decode once, apply on every replica (as `Service` does).
    let mut replicas: Vec<Replica<KvStore>> =
        (0..n).map(|_| Replica::new(KvStore::default())).collect();
    let mut cmds = 0u64;
    let t0 = Instant::now();
    for d in stream {
        let decoded = replicas[0]
            .decode_round(d.round, &d.messages, true)
            .map_err(|e| format!("decode: {e:?}"))?;
        cmds += decoded.len() as u64;
        for (i, r) in replicas.iter_mut().enumerate() {
            let out =
                r.apply_decoded(d.round, &decoded, i == 0).map_err(|e| format!("apply: {e:?}"))?;
            black_box(out);
        }
    }
    out.apply_us = us(t0) / rounds;
    out.cmds = cmds as f64 / rounds;

    // durability: n WALs, group commits at the live rate.
    if let Some((dir, syncs_per_round)) = wal {
        let cfg = DurabilityConfig {
            fsync_every_n_rounds: 0,
            fsync_interval: None,
            ..DurabilityConfig::default()
        };
        let snap = Replica::new(KvStore::default()).snapshot();
        let mut wals = Vec::with_capacity(n);
        for i in 0..n {
            let disk = FileDisk::open(dir.join(format!("server-{i}")))
                .map_err(|e| format!("wal dir: {e}"))?;
            wals.push(
                Wal::create(Box::new(disk), cfg.clone(), &snap).map_err(|e| format!("wal: {e}"))?,
            );
        }
        let every = if syncs_per_round > 0.0 {
            (1.0 / syncs_per_round).round().max(1.0) as usize
        } else {
            0
        };
        let mut append_ns = 0u128;
        let mut bytes = 0u64;
        let mut record = Vec::new();
        for (k, d) in stream.iter().enumerate() {
            record.clear();
            allconcur_core::wire::encode_delivery(d, &mut record);
            bytes += (n * (FRAME_HEADER_BYTES + 8 + record.len())) as u64;
            let t = Instant::now();
            for w in wals.iter_mut() {
                w.append(d).map_err(|e| format!("append: {e}"))?;
            }
            append_ns += t.elapsed().as_nanos();
            if every > 0 && (k + 1) % every == 0 {
                for w in wals.iter_mut() {
                    let t = Instant::now();
                    w.sync().map_err(|e| format!("sync: {e}"))?;
                    out.fsync_us.push(us(t));
                }
            }
        }
        out.append_us = append_ns as f64 / 1e3 / rounds;
        out.wal_bytes = bytes as f64 / rounds;
    }
    Ok(out)
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}
