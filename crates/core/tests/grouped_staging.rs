//! Grouped stages each upload once: a round allocates one sort vector per
//! worker, not two per group, and its restore points carry no staged
//! cells. A binary of its own because it replaces the global allocator
//! with a counting one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use olive_core::aggregation::{Aggregator, AggregatorKind, StreamingAggregator};
use olive_fl::SparseGradient;
use olive_memsim::NullTracer;

/// Allocations (and reallocations) of at least this many bytes are
/// counted, on every thread; zero counts nothing.
static THRESHOLD: AtomicUsize = AtomicUsize::new(0);
static LARGE: AtomicUsize = AtomicUsize::new(0);

/// The tests of this binary run one at a time: the counter sees the
/// pool's workers too, so it sees every thread of the process.
static SERIAL: Mutex<()> = Mutex::new(());

struct Counting;

impl Counting {
    fn note(size: usize) {
        let threshold = THRESHOLD.load(Ordering::Relaxed);
        if threshold > 0 && size >= threshold {
            LARGE.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// atomics, so touching them from inside the allocator neither allocates
// nor re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations of at least `threshold` bytes made while `f` runs.
fn large_allocations(threshold: usize, f: impl FnOnce()) -> usize {
    LARGE.store(0, Ordering::Relaxed);
    THRESHOLD.store(threshold, Ordering::Relaxed);
    f();
    THRESHOLD.store(0, Ordering::Relaxed);
    LARGE.load(Ordering::Relaxed)
}

/// `n` top-k-shaped updates over dimension `d`: `k` distinct ascending
/// indices each, from a fixed linear congruential stream.
fn updates(n: usize, k: usize, d: usize) -> Vec<SparseGradient> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as u32
    };
    (0..n)
        .map(|_| {
            let offset = next() as usize % d;
            let mut indices: Vec<u32> = (0..k).map(|j| ((offset + j * d / k) % d) as u32).collect();
            indices.sort_unstable();
            let values = (0..k).map(|_| next() as f32 / u32::MAX as f32 - 0.5).collect();
            SparseGradient { dense_dim: d, indices, values }
        })
        .collect()
}

const D: usize = 64;
const H: usize = 8;
/// Clients per chunk: divides no unit of h·threads clients, so a partial
/// wave is pending at most chunk boundaries.
const CHUNK: usize = 5;

/// One Grouped round of four full waves and a partial one, streamed in
/// chunks with a restore point written after every chunk: the state
/// bytes of each, in order.
fn round(updates: &[SparseGradient], threads: usize) -> Vec<usize> {
    let mut agg = StreamingAggregator::new(AggregatorKind::Grouped { h: H }, D, threads);
    let mut saved = Vec::new();
    for chunk in updates.chunks(CHUNK) {
        agg.ingest(chunk, &mut NullTracer);
        saved.push(agg.save_state().len());
    }
    let delta = agg.finalize(&mut NullTracer);
    assert_eq!(delta.len(), D);
    saved
}

/// At most one allocation the size of a group's cells per worker per
/// round — its staging buffer, sized once for the run of Algorithm 4 it
/// becomes — however many groups and chunks the round has.
#[test]
fn a_round_allocates_one_sort_vector_per_worker() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let k = 16;
    for threads in [1usize, 2] {
        let n = 4 * H * threads + 5;
        let updates = updates(n, k, D);
        let large = large_allocations(H * k * 8, || {
            round(&updates, threads);
        });
        assert!(large <= threads, "threads={threads}: {large} allocations of a group's size");
    }
}

/// A restore point's Grouped share is its descriptor — the configuration
/// and the client count: the same bytes after every chunk — pending wave
/// or not — and at every k.
#[test]
fn checkpoint_bytes_have_no_term_in_k() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1usize, 2] {
        let n = 4 * H * threads + 5;
        let per_chunk = 1 + 3 * 8 + 8; // tag, h + d + threads, n
        for k in [4usize, 16, 32] {
            let saved = round(&updates(n, k, D), threads);
            assert_eq!(saved.len(), n.div_ceil(CHUNK));
            assert!(
                saved.iter().all(|&len| len == per_chunk),
                "threads={threads} k={k}: {saved:?}"
            );
        }
    }
}
