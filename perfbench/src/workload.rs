//! The three workloads and their seeded command generator.
//!
//! Commands are a pure function of `(seed, index)`, so the checker can
//! regenerate any command the load generator submitted. Every `Put` value starts
//! with its command index, which makes each agreed `Put` identify itself
//! in the delivery stream.

use allconcur_core::replica::KvCommand;
use allconcur_core::ServerId;
use allconcur_graph::Digraph;
use bytes::Bytes;

/// How the load generator offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Exactly `window` rounds outstanding; each round carries
    /// `per_origin` commands from every server.
    Closed {
        /// Commands per server per round.
        per_origin: usize,
    },
    /// Commands due on a fixed schedule, round-robin over origins.
    Open {
        /// Offered commands per second.
        rate_per_s: f64,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Servers.
    pub n: usize,
    /// GS(n, d) overlay degree.
    pub degree: usize,
    /// Service pipeline depth = transport round window.
    pub window: usize,
    /// Load shape.
    pub load: Load,
    /// Bytes per `Put` value (≥ 8: the command index leads it).
    pub value_bytes: usize,
    /// Percent of commands that are linearizable `Get`s.
    pub get_pct: u64,
    /// Distinct keys.
    pub keys: usize,
    /// WAL on `FileDisk` with `DurabilityConfig::default()`.
    pub durable: bool,
}

/// Every workload. The first two are the ones `BENCHMARK.json` lists.
/// `flood-n64` runs the same way but is left out of it: its reactor
/// stalls of up to seconds make its throughput and tail latency differ
/// by about 40% between runs (see the README).
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "batch-n8",
        n: 8,
        degree: 3,
        window: 8,
        load: Load::Closed { per_origin: 256 },
        value_bytes: 64,
        get_pct: 0,
        keys: 1024,
        durable: false,
    },
    Workload {
        name: "durable-open-n8",
        n: 8,
        degree: 3,
        window: 8,
        load: Load::Open { rate_per_s: 500.0 },
        value_bytes: 16,
        get_pct: 20,
        keys: 1024,
        durable: true,
    },
    Workload {
        name: "flood-n64",
        n: 64,
        degree: 5,
        window: 8,
        load: Load::Closed { per_origin: 1 },
        value_bytes: 16,
        get_pct: 0,
        keys: 1024,
        durable: false,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The GS(n, d) overlay.
    pub fn overlay(&self) -> Digraph {
        allconcur_graph::gs::gs_digraph(self.n, self.degree).expect("valid GS parameters")
    }

    /// Commands per closed-loop round (all origins), or 0 for open loops.
    pub fn cmds_per_batch(&self) -> u64 {
        match self.load {
            Load::Closed { per_origin } => (per_origin * self.n) as u64,
            Load::Open { .. } => 0,
        }
    }

    /// The server command `index` is submitted through.
    pub fn origin(&self, index: u64) -> ServerId {
        match self.load {
            Load::Closed { per_origin } => {
                ((index / per_origin as u64) % self.n as u64) as ServerId
            }
            Load::Open { .. } => (index % self.n as u64) as ServerId,
        }
    }

    /// The first command index after `index` submitted through the same
    /// origin.
    pub fn next_of_origin(&self, index: u64) -> u64 {
        match self.load {
            Load::Closed { per_origin } => {
                let per = per_origin as u64;
                if !(index + 1).is_multiple_of(per) {
                    index + 1
                } else {
                    index + 1 + per * (self.n as u64 - 1)
                }
            }
            Load::Open { .. } => index + self.n as u64,
        }
    }

    /// The first command index of `origin` (see [`Workload::origin`]).
    pub fn first_of_origin(&self, origin: ServerId) -> u64 {
        match self.load {
            Load::Closed { per_origin } => origin as u64 * per_origin as u64,
            Load::Open { .. } => origin as u64,
        }
    }
}

/// splitmix64 finaliser: a well-mixed 64-bit hash of `x`.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seeded command generator for one workload.
#[derive(Debug, Clone)]
pub struct Gen {
    seed: u64,
    workload: Workload,
    keys: Vec<Bytes>,
}

impl Gen {
    /// Generator for `workload` under `seed`.
    pub fn new(workload: &Workload, seed: u64) -> Gen {
        let keys = (0..workload.keys).map(|k| Bytes::from(format!("key-{k:05}"))).collect();
        Gen { seed: mix(seed), workload: *workload, keys }
    }

    /// The workload this generator serves.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Hash, key number and kind of command `index`.
    fn shape(&self, index: u64) -> (u64, usize, bool) {
        let h = mix(self.seed ^ mix(index));
        let key = (h % self.keys.len() as u64) as usize;
        (h, key, (h >> 32) % 100 < self.workload.get_pct)
    }

    /// The filler bytes after a `Put` value's leading index: one hash
    /// per 8 bytes.
    fn fill(&self, h: u64) -> impl Iterator<Item = u8> {
        let len = self.workload.value_bytes.saturating_sub(8);
        (0..len.div_ceil(8) as u64).flat_map(move |j| mix(h ^ j).to_le_bytes()).take(len)
    }

    /// Command number `index`.
    pub fn command(&self, index: u64) -> KvCommand {
        let (h, key, get) = self.shape(index);
        let key = self.keys[key].clone();
        if get {
            return KvCommand::Get { key };
        }
        let mut value = Vec::with_capacity(self.workload.value_bytes.max(8));
        value.extend_from_slice(&index.to_le_bytes());
        value.extend(self.fill(h));
        KvCommand::Put { key, value: Bytes::from(value) }
    }

    /// Whether command `index` is `Put { key, value }`; if so, the key's
    /// number. Allocation-free, for the stream checker.
    pub fn put_key(&self, index: u64, key: &[u8], value: &[u8]) -> Option<usize> {
        let (h, k, get) = self.shape(index);
        let same = !get
            && self.keys[k] == key
            && value.len() == self.workload.value_bytes.max(8)
            && value[..8] == index.to_le_bytes()
            && self.fill(h).eq(value[8..].iter().copied());
        same.then_some(k)
    }

    /// Whether command `index` is `Get { key }`; if so, the key's number.
    pub fn get_key(&self, index: u64, key: &[u8]) -> Option<usize> {
        let (_, k, get) = self.shape(index);
        (get && self.keys[k] == key).then_some(k)
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Key number `k`.
    pub fn key(&self, k: usize) -> &Bytes {
        &self.keys[k]
    }
}

/// The command index a `Put` value carries.
pub fn put_index(value: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(value.get(..8)?.try_into().ok()?))
}
