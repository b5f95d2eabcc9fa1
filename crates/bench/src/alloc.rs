//! A counting global allocator for the harness.
//!
//! The zero-allocation datapath claim ("a steady-state simulated cycle
//! performs zero heap allocations") is asserted, not assumed: the bench
//! binaries install [`CountingAlloc`] as the global allocator, snapshot
//! the counter around a measured inference burst, and fail the run if
//! the burst allocated. The counter is per thread — a burst runs on the
//! measuring thread, and allocations of concurrently running threads
//! (other tests, in `cargo test`) must not land in its window — and a
//! plain `Cell` with `const` init, which never allocates itself and
//! adds negligible overhead on top of the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: an allocation during thread teardown goes uncounted
    // rather than panicking inside the allocator.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// A [`System`]-backed allocator that counts every allocation
/// (`alloc`, `alloc_zeroed`, and growing `realloc` calls all count as
/// one; `dealloc` is free and uncounted).
pub struct CountingAlloc;

// SAFETY: delegates every operation verbatim to `System`; the counter
// does not influence allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations the calling thread has made since it started.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Runs `f` and returns `(allocations during f, f's result)`, counting
/// the calling thread's allocations only. Only meaningful when
/// [`CountingAlloc`] is installed as the global allocator.
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocation_count();
    let value = f();
    (allocation_count() - before, value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotonic() {
        let a = allocation_count();
        let v: Vec<u64> = (0..100).collect();
        let b = allocation_count();
        // The bench library installs CountingAlloc globally, so the Vec
        // above must have been counted.
        assert!(b > a, "allocation went uncounted");
        assert_eq!(v.len(), 100);
    }

    #[test]
    fn count_allocations_sees_zero_for_pure_code() {
        let (allocs, sum) = count_allocations(|| (0u64..64).sum::<u64>());
        assert_eq!(allocs, 0);
        assert_eq!(sum, 2016);
    }
}
