//! The counting allocator: every heap allocation the process makes, from
//! every thread, is counted on its way to [`System`]. The benchmark's own
//! bookkeeping runs inside [`untracked`], so a count taken around a call
//! into the program holds only the program's allocations.
//!
//! `alloc`, `alloc_zeroed` and `realloc` each count as one allocation of
//! the size they request (a `realloc` to `n` bytes requests `n` bytes);
//! `dealloc` is not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Sub;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The process's allocator: [`System`], counted.
pub struct Counting;

// Relaxed: the counters publish no other data. A reader on another thread
// sees a writer's counts once a channel receive or a join has ordered the
// two threads, which is how every window in this crate ends.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // A const-initialized `Cell<bool>` has no destructor and is never
    // lazily allocated, so reading it inside the allocator cannot recurse.
    static UNTRACKED: Cell<bool> = const { Cell::new(false) };
}

fn note(size: usize) {
    if !UNTRACKED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only atomics and a destructor-free thread-local, never the heap.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations and bytes requested, as counted so far (or as a difference
/// of two readings).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Allocs {
    /// Allocation calls.
    pub count: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
}

impl Sub for Allocs {
    type Output = Allocs;
    fn sub(self, o: Allocs) -> Allocs {
        Allocs {
            count: self.count - o.count,
            bytes: self.bytes - o.bytes,
        }
    }
}

impl std::ops::AddAssign for Allocs {
    fn add_assign(&mut self, o: Allocs) {
        self.count += o.count;
        self.bytes += o.bytes;
    }
}

/// The process-wide counts so far.
pub fn totals() -> Allocs {
    Allocs {
        count: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Run `f` with this thread's allocations left out of the counts: the
/// benchmark's own bookkeeping inside a counted window.
pub fn untracked<T>(f: impl FnOnce() -> T) -> T {
    let was = UNTRACKED.with(|u| u.replace(true));
    let out = f();
    UNTRACKED.with(|u| u.set(was));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_unless_untracked() {
        // Other test threads allocate too: compare only this thread's
        // allocations, made while no other test runs in this binary.
        let a = totals();
        let v: Vec<u8> = Vec::with_capacity(1000);
        let b = totals();
        std::hint::black_box(&v);
        assert!((b - a).count >= 1);
        assert!((b - a).bytes >= 1000);
        untracked(|| {
            let before = UNTRACKED.with(Cell::get);
            assert!(before);
        });
        assert!(!UNTRACKED.with(Cell::get));
    }
}
