//! Helpers shared by the loopback-cluster integration tests.

use allconcur_net::runtime::Delivery;
use allconcur_net::LocalCluster;
use std::time::{Duration, Instant};

/// Poll `probe` every millisecond until it yields a value or `timeout`
/// passes (`None`).
pub fn poll_until<T>(timeout: Duration, mut probe: impl FnMut() -> Option<T>) -> Option<T> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(v) = probe() {
            return Some(v);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Server `id`'s next delivery, waiting up to `timeout`; `None` on
/// timeout or when the server is dead.
pub fn recv_delivery(cluster: &LocalCluster, id: u32, timeout: Duration) -> Option<Delivery> {
    poll_until(timeout, || cluster.try_recv_delivery(id))
}
