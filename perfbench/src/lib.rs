//! End-to-end and per-layer benchmark of the typed key-value `Service`
//! over the epoll TCP backend. See `perfbench/README.md`.

pub mod alloc_count;
pub mod live;
pub mod procfs;
pub mod replay;
pub mod report;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod workload;
