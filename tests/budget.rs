//! The process-wide core budget of `restore-util`: a map runs on its
//! caller and adds a helper only while a core is idle.
//!
//! The count is one per process, so these tests take turns (`SERIAL`)
//! rather than run side by side, and this file is a test binary of its own.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Barrier, Mutex, RwLock};
use std::thread::{self, ThreadId};
use std::time::Duration;

use restore::util::{busy, busy_threads, default_workers, parallel_map_workers};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` while `cores` other threads each hold a [`busy`] guard.
fn with_busy_threads<T>(cores: usize, f: impl FnOnce() -> T) -> T {
    let parked = RwLock::new(());
    let gate = parked.write().unwrap();
    let counted = Barrier::new(cores + 1);
    thread::scope(|s| {
        for _ in 0..cores {
            s.spawn(|| {
                let _busy = busy();
                counted.wait();
                // Blocks until `gate` drops, on unwind too.
                drop(parked.read());
            });
        }
        counted.wait();
        let out = f();
        drop(gate);
        out
    })
}

#[test]
fn a_map_never_runs_on_more_threads_than_cores() {
    let _serial = serial();
    let cores = default_workers();
    let jobs: Vec<usize> = (0..16 * cores).collect();
    let threads = parallel_map_workers(jobs, 4 * cores, |_| {
        thread::sleep(Duration::from_millis(2));
        assert!(busy_threads() <= cores, "{} counted", busy_threads());
        thread::current().id()
    });
    let distinct: HashSet<ThreadId> = threads.into_iter().collect();
    assert!(
        distinct.len() <= cores,
        "{} threads on {cores} cores",
        distinct.len()
    );
    assert_eq!(busy_threads(), 0);
}

#[test]
fn a_map_with_every_core_busy_runs_on_its_caller_in_order() {
    let _serial = serial();
    let cores = default_workers();
    let caller = thread::current().id();
    let seen = Mutex::new(Vec::new());
    with_busy_threads(cores, || {
        let jobs: Vec<usize> = (0..32).collect();
        parallel_map_workers(jobs, 4 * cores, |&j| {
            seen.lock().unwrap().push((j, thread::current().id()));
        });
    });
    let seen = seen.into_inner().unwrap();
    assert_eq!(seen, (0..32).map(|j| (j, caller)).collect::<Vec<_>>());
    assert_eq!(busy_threads(), 0);
}

#[test]
fn a_nested_map_neither_deadlocks_nor_counts_its_caller_twice() {
    let _serial = serial();
    let cores = default_workers();
    // Inline on one thread: the caller is counted once at every depth.
    let depths = parallel_map_workers(vec![0usize; 3], 1, |_| {
        parallel_map_workers(vec![0usize; 3], 1, |_| busy_threads())
    });
    assert_eq!(depths, vec![vec![1; 3]; 3]);
    // Across threads: maps inside every thread of a map stay within the
    // cores, and all of them finish.
    let jobs: Vec<usize> = (0..2 * cores).collect();
    let most = parallel_map_workers(jobs, cores, |_| {
        let inner: Vec<usize> = (0..2 * cores).collect();
        parallel_map_workers(inner, cores, |_| {
            thread::sleep(Duration::from_millis(1));
            busy_threads()
        })
        .into_iter()
        .max()
    });
    let most = most.into_iter().flatten().max().unwrap();
    assert!(most <= cores, "{most} counted on {cores} cores");
    assert_eq!(busy_threads(), 0);
}

#[test]
fn a_panicking_map_gives_back_every_core() {
    let _serial = serial();
    let cores = default_workers();
    let before = busy_threads();
    let jobs: Vec<usize> = (0..4 * cores).collect();
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        parallel_map_workers(jobs, 2 * cores, |&j| {
            thread::sleep(Duration::from_millis(1));
            panic!("job {j}");
        })
    }));
    assert!(panicked.is_err());
    assert_eq!(busy_threads(), before);
    // The caller is counted afresh by the next map, once.
    assert_eq!(
        parallel_map_workers(vec![0], 1, |_| busy_threads()),
        vec![before + 1]
    );
}
