//! Correctness checks over the recorded agreed stream.
//!
//! Server 0's delivery stream is replayed into a model key-value map.
//! Every agreed command must be one the load generator submitted, through that
//! origin, in submission order; every `Put` must be acknowledged with
//! `Ack`; every linearizable `Get` must return what the model held at
//! the `Get`'s place in the agreed order; and the final replica state
//! must equal the model.

use crate::workload::{put_index, Gen};
use allconcur_core::batch::iter_batch;
use allconcur_core::delivery::Delivery;
use allconcur_core::replica::{Codec, KvCodec, KvCommand, KvResponse, KvStore};
use allconcur_core::ServerId;
use allconcur_rsm::ServiceError;
use bytes::Bytes;
use std::collections::BTreeMap;

/// How far past the expected position an agreed `Get` is searched for
/// among its origin's submissions (skipping lost commands).
const GET_SEARCH: usize = 256;

/// Problems kept verbatim; later ones are only counted.
const MAX_PROBLEMS: usize = 20;

/// Digest of a delivery's round, origins and payloads, eight bytes per
/// step.
pub fn delivery_digest(d: &Delivery) -> u64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut eat = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
    eat(d.round);
    eat(d.messages.len() as u64);
    for (origin, payload) in &d.messages {
        eat(u64::from(*origin) << 32 | payload.len() as u64);
        let mut words = payload.chunks_exact(8);
        for w in &mut words {
            eat(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        eat(u64::from_le_bytes(tail));
    }
    h
}

/// Digest of a whole delivery stream, in order.
pub fn stream_hash(deliveries: &[Delivery]) -> u64 {
    deliveries.iter().fold(0, |h, d| crate::workload::mix(h ^ delivery_digest(d)))
}

/// Incremental checker fed by the live run.
pub struct StreamCheck {
    gen: Gen,
    n: usize,
    /// Deliveries seen per server.
    rounds: Vec<u64>,
    /// Deliveries per server with fewer than `n` origins.
    short: Vec<u64>,
    /// Per round still being delivered: the first server's content
    /// digest, that server, and how many servers delivered it so far.
    agreement: BTreeMap<u64, (u64, ServerId, usize)>,
    /// Model state: value per key number.
    model: Vec<Option<Bytes>>,
    /// Per origin: the next command index the stream may carry.
    next_expected: Vec<u64>,
    /// `Get` index → value the model held at its agreed place.
    expected_get: BTreeMap<u64, Option<Bytes>>,
    /// `Get` index → value the service answered.
    answered_get: BTreeMap<u64, Option<Bytes>>,
    problems: Vec<String>,
    problem_count: usize,
    /// Server 0's first rounds, kept for replay (payload-byte and
    /// round budgets).
    retained: Vec<Delivery>,
    retain_budget: usize,
    retain_rounds: usize,
    /// `CommandLost` errors.
    pub lost: u64,
}

impl StreamCheck {
    /// A checker for `gen`'s workload, retaining server 0's first
    /// rounds for replay: at most `retain_rounds` of them, carrying at
    /// most `retain_bytes` of payload.
    pub fn new(gen: &Gen, retain_bytes: usize, retain_rounds: usize) -> StreamCheck {
        let w = gen.workload();
        StreamCheck {
            gen: gen.clone(),
            n: w.n,
            rounds: vec![0; w.n],
            short: vec![0; w.n],
            agreement: BTreeMap::new(),
            model: vec![None; gen.key_count()],
            next_expected: (0..w.n as ServerId).map(|o| w.first_of_origin(o)).collect(),
            expected_get: BTreeMap::new(),
            answered_get: BTreeMap::new(),
            problems: Vec::new(),
            problem_count: 0,
            retained: Vec::new(),
            retain_budget: retain_bytes,
            retain_rounds,
            lost: 0,
        }
    }

    fn problem(&mut self, p: String) {
        self.problem_count += 1;
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(p);
        }
    }

    /// Fold one recorded delivery.
    pub fn ingest(&mut self, at: ServerId, d: Delivery) {
        let s = at as usize;
        if d.round != self.rounds[s] {
            self.problem(format!(
                "server {at} delivered round {} after {} rounds",
                d.round, self.rounds[s]
            ));
        }
        self.rounds[s] += 1;
        if d.messages.len() < self.n {
            self.short[s] += 1;
        }
        // Agreement: every server delivers the same messages in a round.
        // (The service shares one decoded copy of each round among its
        // replicas, so replica states alone cannot show a disagreement.)
        let digest = delivery_digest(&d);
        let entry = self.agreement.entry(d.round).or_insert((digest, at, 0));
        let (first, by, seen) = *entry;
        entry.2 += 1;
        if seen + 1 == self.n {
            self.agreement.remove(&d.round);
        }
        if digest != first {
            self.problem(format!(
                "agreement: server {at} delivered round {} differently from server {by}",
                d.round
            ));
        }
        if at != 0 {
            return;
        }
        for (origin, payload) in &d.messages {
            for req in iter_batch(payload.clone()) {
                let cmd = match req
                    .map_err(|e| format!("{e:?}"))
                    .and_then(|r| KvCodec.decode(&r).map_err(|e| format!("{e:?}")))
                {
                    Ok(cmd) => cmd,
                    Err(e) => {
                        self.problem(format!(
                            "round {}: undecodable command from {origin}: {e}",
                            d.round
                        ));
                        continue;
                    }
                };
                self.apply(d.round, *origin, cmd);
            }
        }
        let bytes = d.payload_bytes();
        let next = self.retained.len();
        if bytes <= self.retain_budget && next < self.retain_rounds && d.round == next as u64 {
            self.retain_budget -= bytes;
            self.retained.push(d);
        } else {
            self.retain_budget = 0;
        }
    }

    fn apply(&mut self, round: u64, origin: ServerId, cmd: KvCommand) {
        let w = *self.gen.workload();
        let o = origin as usize;
        match cmd {
            KvCommand::Put { key, value } => {
                let idx = put_index(&value);
                let known = idx.filter(|&i| i >= self.next_expected[o] && w.origin(i) == origin);
                match known.and_then(|i| Some((i, self.gen.put_key(i, &key, &value)?))) {
                    Some((i, k)) => {
                        self.next_expected[o] = w.next_of_origin(i);
                        self.model[k] = Some(value);
                    }
                    None => self.problem(format!("round {round}: agreed Put from {origin} (index {idx:?}) was not submitted there in this order")),
                }
            }
            KvCommand::Get { key } => {
                let mut i = self.next_expected[o];
                for _ in 0..GET_SEARCH {
                    if let Some(k) = self.gen.get_key(i, &key) {
                        self.expected_get.insert(i, self.model[k].clone());
                        self.next_expected[o] = w.next_of_origin(i);
                        return;
                    }
                    i = w.next_of_origin(i);
                }
                self.problem(format!(
                    "round {round}: agreed Get from {origin} matches no submitted Get"
                ));
            }
            KvCommand::Delete { .. } => {
                self.problem(format!("round {round}: agreed Delete was never submitted"))
            }
        }
    }

    /// The typed response the service returned for command `index`.
    pub fn response(&mut self, index: u64, resp: KvResponse) {
        match (self.gen.command(index), resp) {
            (KvCommand::Put { .. }, KvResponse::Ack) => {}
            (KvCommand::Get { .. }, KvResponse::Value(v)) => {
                self.answered_get.insert(index, v);
            }
            (cmd, resp) => self.problem(format!("command {index} ({cmd:?}) answered {resp:?}")),
        }
    }

    /// A command failed with a typed error.
    pub fn error(&mut self, e: &ServiceError) {
        if let ServiceError::CommandLost { .. } = e {
            self.lost += 1;
        }
    }

    /// Compare the final replica state with the model, and every
    /// answered `Get` with the model's value at its agreed place.
    pub fn compare_final(&mut self, state: &KvStore) -> Option<String> {
        let mut bad = Vec::new();
        for (index, answered) in std::mem::take(&mut self.answered_get) {
            match self.expected_get.get(&index) {
                Some(expected) if *expected == answered => {}
                Some(expected) => {
                    bad.push(format!("Get {index} answered {answered:?}, model says {expected:?}"))
                }
                None => bad.push(format!("Get {index} answered but absent from server 0's stream")),
            }
        }
        for p in bad {
            self.problem(p);
        }
        let keys = self.model.iter().filter(|v| v.is_some()).count();
        let same = state.len() == keys
            && self
                .model
                .iter()
                .enumerate()
                .all(|(k, v)| v.as_deref() == state.get_local(self.gen.key(k)));
        (!same).then(|| format!("final replica state ({} keys) differs from the model of the agreed stream ({keys} keys)", state.len()))
    }

    /// Most deliveries with fewer than `n` origins at any one server.
    pub fn short_rounds(&self) -> u64 {
        self.short.iter().copied().max().unwrap_or(0)
    }

    /// All deliveries seen, every server.
    pub fn deliveries(&self) -> u64 {
        self.rounds.iter().sum()
    }

    /// Rounds server 0 delivered.
    pub fn rounds_at_0(&self) -> u64 {
        self.rounds[0]
    }

    /// Problems found so far (and how many in total).
    pub fn problems(&self) -> (&[String], usize) {
        (&self.problems, self.problem_count)
    }

    /// Server 0's retained prefix of rounds.
    pub fn take_retained(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.retained)
    }
}
