//! A counting global allocator: exact, repeatable allocation counts for the
//! traced pass (the simulator is deterministic, so a single-threaded case
//! allocates the same number of blocks and bytes on every run).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, with every allocation counted.
pub struct Counting;

/// One cache line of counters, so threads counting in different slots do
/// not pass a line back and forth.
#[repr(align(64))]
struct Slot {
    calls: AtomicU64,
    bytes: AtomicU64,
}

const SLOTS: usize = 16;
static COUNTS: [Slot; SLOTS] =
    [const { Slot { calls: AtomicU64::new(0), bytes: AtomicU64::new(0) } }; SLOTS];

thread_local! {
    /// Only its address is used: one per live thread. Constant-initialised
    /// and without a destructor, so reading it never allocates.
    static MARK: u8 = const { 0 };
}

fn count(bytes: usize) {
    // The thread's slot: the top four bits of its mark's address, hashed
    // (thread-local blocks sit whole pages apart, so low bits would collide).
    let mark = MARK.with(|m| std::ptr::from_ref(m) as usize as u64);
    let slot = &COUNTS[(mark.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize];
    // Statistics only — they publish no other data, so `Relaxed` suffices.
    slot.calls.fetch_add(1, Ordering::Relaxed);
    slot.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and bytes requested since the process started
/// (`realloc` counts as one call of its new size).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub calls: u64,
    pub bytes: u64,
}

impl AllocCount {
    pub fn now() -> AllocCount {
        COUNTS.iter().fold(AllocCount::default(), |sum, slot| AllocCount {
            calls: sum.calls + slot.calls.load(Ordering::Relaxed),
            bytes: sum.bytes + slot.bytes.load(Ordering::Relaxed),
        })
    }

    /// Counts accrued since `earlier`.
    pub fn since(earlier: AllocCount) -> AllocCount {
        let now = AllocCount::now();
        AllocCount { calls: now.calls - earlier.calls, bytes: now.bytes - earlier.bytes }
    }
}
