//! One worker pool for the whole process: every parallel region of the
//! round — client training, the upload open, Grouped's waves, Baseline's
//! scan, the sort kernel's passes — runs on it, and nothing else in the
//! tree starts a thread.
//!
//! The API is [`std::thread::scope`]'s shape: [`scope`] hands its body a
//! [`Scope`] whose [`Scope::spawn`] takes closures that may borrow the
//! caller's stack, and returns only after every spawned task has
//! finished. The calling thread is always worker 0 — it runs its own
//! share inside the body instead of waiting ([`join`] is that pattern for
//! a list of tasks) — so a region of `t` workers occupies the caller and
//! `t − 1` pool threads.
//!
//! Pool threads park between tasks. A spawned task goes to a parked
//! thread if there is one and otherwise starts a new one: it is never
//! queued behind a busy worker, so tasks that wait on each other (the
//! sort kernel's per-pass barrier) cannot deadlock, however deeply
//! regions nest. The pool therefore grows to the largest number of tasks
//! ever in flight at once and stays there; [`threads_started`] counts the
//! threads it has started.
//!
//! A task that panics is caught on its worker; once every task of the
//! scope has finished, [`scope`] re-raises the first such panic on the
//! caller (a panic of the body itself wins) — `std::thread::scope`'s
//! contract. The worker lives on and parks again.

use std::any::Any;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// The payload of a caught panic.
type Panic = Box<dyn Any + Send + 'static>;

/// A spawned task with its lifetime erased, and the scope to report to.
struct Job {
    task: Box<dyn FnOnce() + Send + 'static>,
    tally: Arc<Tally>,
}

/// Parked threads and the jobs handed to them.
struct Parked {
    /// Jobs handed over and not yet picked up; each was handed to a thread
    /// counted in `idle` at the time, so one is always on its way.
    jobs: Vec<Job>,
    /// Threads parked (or about to park) with no job reserved for them.
    idle: usize,
}

static PARKED: Mutex<Parked> = Mutex::new(Parked { jobs: Vec::new(), idle: 0 });
static WAKE: Condvar = Condvar::new();
static STARTED: AtomicUsize = AtomicUsize::new(0);

/// No lock in this module is held while a task runs, and every task runs
/// under `catch_unwind`, so a poisoned lock still guards a consistent
/// value.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Threads the pool has started since the process began.
pub fn threads_started() -> usize {
    STARTED.load(Ordering::Relaxed)
}

/// Hands `job` to a parked thread, or starts a thread for it.
fn submit(job: Job) -> std::io::Result<()> {
    let mut parked = lock(&PARKED);
    if parked.idle > 0 {
        parked.idle -= 1;
        parked.jobs.push(job);
        drop(parked);
        WAKE.notify_one();
        return Ok(());
    }
    drop(parked);
    std::thread::Builder::new().name("olive-pool".into()).spawn(move || worker(job))?;
    STARTED.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// A pool thread: runs its job, parks, runs the next one, forever.
fn worker(mut job: Job) {
    loop {
        let Job { task, tally } = job;
        let panicked = panic::catch_unwind(AssertUnwindSafe(task)).err();
        // Counted idle *before* the scope may see the task finish, so the
        // caller's next spawn finds this thread instead of starting one.
        lock(&PARKED).idle += 1;
        tally.finish(panicked);
        drop(tally);
        let mut parked = lock(&PARKED);
        job = loop {
            if let Some(job) = parked.jobs.pop() {
                break job;
            }
            parked = WAKE.wait(parked).unwrap_or_else(PoisonError::into_inner);
        };
    }
}

/// One scope's running tasks and the first panic among them.
#[derive(Default)]
struct Tally {
    state: Mutex<(usize, Option<Panic>)>,
    done: Condvar,
}

impl Tally {
    fn start(&self) {
        lock(&self.state).0 += 1;
    }

    fn finish(&self, panicked: Option<Panic>) {
        let mut state = lock(&self.state);
        state.0 -= 1;
        if state.1.is_none() {
            state.1 = panicked;
        }
        if state.0 == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until no task is running; the first task panic, if any.
    fn wait(&self) -> Option<Panic> {
        let mut state = lock(&self.state);
        while state.0 > 0 {
            state = self.done.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        state.1.take()
    }
}

/// A region of tasks that may borrow anything that outlives `'env`
/// ([`scope`]).
pub struct Scope<'scope, 'env: 'scope> {
    tally: Arc<Tally>,
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

impl<'scope> Scope<'scope, '_> {
    /// Runs `task` on a pool thread — a parked one, or a new one if none
    /// is parked — while the caller goes on.
    pub fn spawn<F: FnOnce() + Send + 'scope>(&'scope self, task: F) {
        self.tally.start();
        type Task<'a> = Box<dyn FnOnce() + Send + 'a>;
        // SAFETY: the task outlives nothing it borrows. It borrows only
        // what outlives `'scope`, and `scope` — the only maker of a
        // `Scope` — does not return or unwind until `Tally::wait` has seen
        // every task of the scope finish; a worker reports a task finished
        // only after the task has run (or unwound) and so dropped
        // everything it captured, and a task that never reaches a worker
        // is dropped here before it is reported.
        let task = unsafe { std::mem::transmute::<Task<'scope>, Task<'static>>(Box::new(task)) };
        if let Err(e) = submit(Job { task, tally: Arc::clone(&self.tally) }) {
            self.tally.finish(None);
            panic!("the worker pool could not start a thread: {e}");
        }
    }
}

/// Runs `body` with a [`Scope`] to spawn tasks on, the calling thread
/// doing its own share inside `body`, and returns once `body` and every
/// spawned task have finished. A panic in `body`, else the first panic
/// of a task, is re-raised here after all of them have finished.
pub fn scope<'env, F, T>(body: F) -> T
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
{
    let scope = Scope { tally: Arc::default(), scope: PhantomData, env: PhantomData };
    let out = panic::catch_unwind(AssertUnwindSafe(|| body(&scope)));
    let task_panic = scope.tally.wait();
    match (out, task_panic) {
        (Err(panicked), _) | (Ok(_), Some(panicked)) => panic::resume_unwind(panicked),
        (Ok(out), None) => out,
    }
}

/// Runs every task and returns once all have finished: the first on the
/// calling thread, the rest on the pool — a lone task runs on the caller
/// with no pool traffic at all. Tasks are taken from `tasks` in order,
/// before the first one runs.
pub fn join<I>(tasks: I)
where
    I: IntoIterator,
    I::Item: FnOnce() + Send,
{
    let mut tasks = tasks.into_iter().peekable();
    let Some(first) = tasks.next() else {
        return;
    };
    if tasks.peek().is_none() {
        return first();
    }
    scope(|s| {
        for task in tasks {
            s.spawn(task);
        }
        first();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_borrow_the_callers_stack_and_finish_before_scope_returns() {
        let mut parts = vec![0u64; 5];
        join(parts.iter_mut().enumerate().map(|(i, part)| move || *part = (i as u64 + 1) * 10));
        assert_eq!(parts, [10, 20, 30, 40, 50]);
        let total = AtomicUsize::new(0);
        let got = scope(|s| {
            for i in 0..4 {
                let total = &total;
                s.spawn(move || {
                    total.fetch_add(i, Ordering::Relaxed);
                });
            }
            7
        });
        assert_eq!((got, total.load(Ordering::Relaxed)), (7, 6));
    }

    #[test]
    fn a_lone_task_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let mut ran_on = None;
        join([|| ran_on = Some(std::thread::current().id())]);
        assert_eq!(ran_on, Some(caller));
    }

    #[test]
    fn tasks_may_spawn_into_their_own_scope() {
        let hits = AtomicUsize::new(0);
        scope(|s| {
            let hits = &hits;
            s.spawn(move || {
                s.spawn(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }
}
