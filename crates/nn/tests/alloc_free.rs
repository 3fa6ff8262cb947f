//! The client step allocates nothing in steady state: once a model's
//! buffers have grown to a batch shape, `train_batch` + `sgd_step` at that
//! shape never reach the allocator. A binary of its own because it
//! replaces the global allocator with a counting one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use olive_nn::zoo::mlp;

thread_local! {
    /// Allocator calls (alloc, realloc) made by this thread.
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching it
// from inside the allocator neither allocates nor re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls this thread makes while running `f`.
fn allocations(f: impl FnOnce()) -> usize {
    let before = CALLS.with(Cell::get);
    f();
    CALLS.with(Cell::get) - before
}

#[test]
fn train_batch_and_sgd_step_allocate_nothing_once_warm() {
    let mut model = mlp(64, 128, 10, 0.5, 7);
    let x: Vec<f32> = (0..40 * 64).map(|i| ((i * 7 % 13) as f32 - 6.0) / 6.0).collect();
    let y: Vec<usize> = (0..40).map(|i| i % 10).collect();
    let mut step = |n: usize| {
        model.train_batch(&x[..n * 64], &y[..n]);
        model.sgd_step(0.1);
    };

    assert!(allocations(|| step(10)) > 0, "the warm-up batch grows the buffers");
    assert_eq!(allocations(|| (0..5).for_each(|_| step(10))), 0, "steady state at batch 10");

    // A larger batch re-sizes once and is quiet again; a smaller one fits
    // in what is already there.
    assert!(allocations(|| step(40)) > 0, "a larger batch grows the buffers");
    assert_eq!(allocations(|| (0..5).for_each(|_| step(40))), 0, "steady state at batch 40");
    assert_eq!(allocations(|| step(4)), 0, "a smaller batch reuses the buffers");
}
