//! A global allocator that counts live heap bytes per thread (libtest
//! runs each test on its own thread), shared by the memory tests so each
//! can compare the heap before an operation with the heap after it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

std::thread_local! {
    /// Bytes allocated and freed by this thread (`const`, so reading them
    /// never allocates).
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    static FREED: Cell<usize> = const { Cell::new(0) };
}

fn count(counter: &'static std::thread::LocalKey<Cell<usize>>, bytes: usize) {
    let _ = counter.try_with(|c| c.set(c.get().wrapping_add(bytes)));
}

/// Heap bytes this thread has allocated and not yet freed.
pub fn live_bytes() -> usize {
    ALLOCATED.with(Cell::get).wrapping_sub(FREED.with(Cell::get))
}

struct LiveBytes;

// SAFETY: every operation defers to `System`; the counters only record
// sizes and never touch the returned memory.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            count(&ALLOCATED, layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            count(&ALLOCATED, layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(&FREED, layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            count(&FREED, layout.size());
            count(&ALLOCATED, new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;
