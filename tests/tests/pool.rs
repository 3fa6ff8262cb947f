//! The process-wide worker pool (`olive_oblivious::pool`) as the round
//! uses it. The pool is process state, so these tests live in a binary of
//! their own and take turns on one lock: a thread another test started
//! must not be counted against this one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Barrier, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use olive_core::aggregation::AggregatorKind;
use olive_integration_tests::small_system;
use olive_memsim::{NullTracer, TrackedBuf};
use olive_oblivious::bitonic_sort_u64_with;
use olive_oblivious::pool::{self, threads_started};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Once a round has run, the pool holds every thread the round needs:
/// later rounds — client training, the upload open, Grouped's waves and
/// tail sorts, on two and on three workers — start none.
#[test]
fn rounds_after_the_first_start_no_threads() {
    let _turn = one_at_a_time();
    let system = |kind, threads, seed| {
        let (mut sys, _) = small_system(kind, None, seed);
        sys.set_threads(threads);
        sys.set_chunk(3);
        sys
    };
    let mut grouped = system(AggregatorKind::Grouped { h: 2 }, 2, 61);
    let mut advanced = system(AggregatorKind::Advanced, 3, 62);
    for sys in [&mut grouped, &mut advanced] {
        sys.run_round(&mut NullTracer).expect("warm-up round");
    }
    let started = threads_started();
    assert!(started >= 2, "a three-worker round needs two pool threads, started {started}");
    for round in 0..5 {
        for sys in [&mut grouped, &mut advanced] {
            sys.run_round(&mut NullTracer).expect("round");
        }
        assert_eq!(threads_started(), started, "round {round} after the warm-up started threads");
    }
}

/// A task's panic reaches the caller only once every sibling task has
/// finished. The barrier holds the panicking task back until its sibling
/// is running; the sibling then waits for word that the caller has
/// caught the panic, which a pool that re-raised early would send — a
/// correct pool cannot, so the wait times out and the sibling finishes
/// first. The worker that panicked parks again and is reused.
#[test]
fn a_task_panic_is_raised_after_its_siblings_finish() {
    let _turn = one_at_a_time();
    let barrier = Barrier::new(2);
    let sibling_done = AtomicBool::new(false);
    let (caught, caught_rx) = mpsc::channel::<()>();
    let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool::scope(|s| {
            let (barrier, sibling_done) = (&barrier, &sibling_done);
            s.spawn(|| {
                barrier.wait();
                panic!("task panic");
            });
            s.spawn(move || {
                barrier.wait();
                let early = caught_rx.recv_timeout(Duration::from_millis(200)).is_ok();
                assert!(!early, "the caller caught the panic while a sibling ran");
                sibling_done.store(true, Ordering::SeqCst);
            });
        })
    }));
    let _ = caught.send(());
    let payload = raised.expect_err("the task's panic reaches the caller");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"task panic"));
    assert!(sibling_done.load(Ordering::SeqCst), "the sibling finished before the re-raise");

    let started = threads_started();
    let mut parts = [0u8; 3];
    pool::join(parts.iter_mut().map(|p| move || *p = 1));
    assert_eq!(parts, [1; 3]);
    assert_eq!(threads_started(), started, "both workers of the panicked scope were reused");
}

/// A sort whose passes meet at a barrier on three workers completes when
/// it runs inside pool tasks — two of them at once, beside a third on the
/// caller — because the pool starts a thread rather than queue a task
/// behind a busy one.
#[test]
fn a_three_worker_sort_inside_a_pool_task_completes() {
    let _turn = one_at_a_time();
    let mut rng = SmallRng::seed_from_u64(3);
    let mut inputs: Vec<Vec<u64>> =
        (0..3).map(|_| (0..20_000).map(|_| rng.gen()).collect()).collect();
    let want: Vec<Vec<u64>> = inputs
        .iter()
        .map(|v| {
            let mut v = v.clone();
            v.sort_unstable();
            v
        })
        .collect();
    pool::join(inputs.iter_mut().map(|v| {
        move || {
            let mut buf = TrackedBuf::new(0, std::mem::take(v));
            bitonic_sort_u64_with(&mut buf, 3, &mut NullTracer);
            *v = buf.into_inner();
        }
    }));
    assert_eq!(inputs, want);
}
