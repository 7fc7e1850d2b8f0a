//! Counting global allocator, switched on only for traced runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Counts allocations and reallocations while [`set_counting`] is on;
/// otherwise a pass-through to the system allocator (one relaxed load).
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

/// One counter per cache line, so reactor threads counting at once do
/// not contend on a single line.
#[repr(align(64))]
struct Stripe(AtomicU64);

const STRIPES: usize = 16;
static COUNTS: [Stripe; STRIPES] = [const { Stripe(AtomicU64::new(0)) }; STRIPES];
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count() {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    // `try_with` fails only during thread teardown; count those on
    // stripe 0.
    let stripe = STRIPE
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES);
            }
            s.get()
        })
        .unwrap_or(0);
    COUNTS[stripe].0.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the counters are statistics that publish no other data,
// and `count` neither allocates nor frees.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Start or stop counting.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far, all threads.
pub fn allocs() -> u64 {
    COUNTS.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
}
