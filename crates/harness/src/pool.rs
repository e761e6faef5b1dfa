//! Scoped self-scheduling thread pool.
//!
//! [`run_indexed`] spreads a vector of independent closures across worker
//! threads. Scheduling is dynamic — every idle worker atomically claims
//! ("steals") the next unstarted job, so long jobs never serialize behind
//! short ones — but the *results* are returned in submission order and the
//! jobs themselves are untouched. A caller whose jobs are pure functions
//! of their inputs therefore gets bit-identical output at any thread
//! count, including 1 (the same contract the supervised
//! `cmpsim_core::experiment::run_grid` keeps).
//!
//! Built on `std::thread::scope`: no leaked threads, no `'static` bounds
//! on borrowed data, and a panicking job propagates to the caller after
//! the scope joins.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Number of workers to use by default: the machine's available
/// parallelism, overridable with `CMPSIM_THREADS`.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("CMPSIM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Runs every job, using up to `threads` workers, and returns the results
/// in the order the jobs were given.
///
/// With `threads <= 1` (or a single job) the jobs run inline on the
/// calling thread, in order, with no worker spawned at all — the serial
/// path really is serial.
///
/// # Panics
///
/// If a job panics, the panic is re-raised on the calling thread once
/// all workers have joined, carrying the *original* payload and the
/// failing job's index — not the generic "a scoped thread panicked" /
/// poisoned-mutex noise. When several jobs panic, the one with the
/// lowest index wins (deterministically, regardless of scheduling).
pub fn run_indexed<T, F>(threads: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    if threads <= 1 || n <= 1 {
        return jobs.into_iter().map(|j| j()).collect();
    }

    // Each job lives in its own slot so workers can claim disjoint jobs
    // without a shared queue lock; `next` is the steal cursor.
    let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let panics: Vec<Mutex<Option<Box<dyn std::any::Any + Send>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = slots[i]
                    .lock()
                    .expect("job slot poisoned")
                    .take()
                    .expect("job claimed twice");
                // Catch instead of unwinding through the scope: an
                // unwinding worker would make `scope` panic with a
                // generic message and poison sibling result mutexes.
                match catch_unwind(AssertUnwindSafe(job)) {
                    Ok(out) => {
                        *results[i].lock().expect("result slot poisoned") = Some(out)
                    }
                    Err(payload) => {
                        *panics[i].lock().expect("panic slot poisoned") = Some(payload)
                    }
                }
            });
        }
    });

    // Re-raise the first (lowest-index) panic with its original payload.
    for (i, p) in panics.into_iter().enumerate() {
        if let Some(payload) = p.into_inner().expect("panic slot poisoned") {
            eprintln!("cmpsim_harness::pool::run_indexed: job {i} of {n} panicked");
            if let Some(msg) = payload.downcast_ref::<&str>() {
                panic!("job {i} panicked: {msg}");
            }
            if let Some(msg) = payload.downcast_ref::<String>() {
                panic!("job {i} panicked: {msg}");
            }
            resume_unwind(payload);
        }
    }

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker exited before finishing its job")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_submission_order() {
        let jobs: Vec<_> = (0..64u64).map(|i| move || i * i).collect();
        let out = run_indexed(8, jobs);
        assert_eq!(out, (0..64u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let make = || (0..50u64).map(|i| move || i.wrapping_mul(0x9E3779B9).rotate_left(7)).collect::<Vec<_>>();
        assert_eq!(run_indexed(1, make()), run_indexed(4, make()));
        assert_eq!(run_indexed(1, make()), run_indexed(16, make()));
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let count = AtomicU64::new(0);
        let jobs: Vec<_> = (0..100)
            .map(|_| {
                let count = &count;
                move || count.fetch_add(1, Ordering::Relaxed)
            })
            .collect();
        run_indexed(7, jobs);
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn zero_threads_falls_back_to_inline() {
        let out = run_indexed(0, vec![|| 1, || 2]);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<u32> = run_indexed(4, Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let out = run_indexed(32, vec![|| 1u8, || 2, || 3]);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn borrowed_data_is_usable() {
        let data: Vec<u64> = (0..1000).collect();
        let jobs: Vec<_> = data
            .chunks(100)
            .map(|chunk| move || chunk.iter().sum::<u64>())
            .collect();
        let partials = run_indexed(4, jobs);
        assert_eq!(partials.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "job 2 panicked: the real failure reason")]
    fn panic_payload_and_index_propagate() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..8u32)
            .map(|i| {
                Box::new(move || {
                    if i == 2 {
                        panic!("the real failure reason");
                    }
                    i
                }) as _
            })
            .collect();
        run_indexed(4, jobs);
    }

    #[test]
    #[should_panic(expected = "job 1 panicked")]
    fn lowest_index_panic_wins() {
        // Both jobs panic; the report must deterministically name job 1
        // (the lowest failing index), not whichever thread lost the race.
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..6u32)
            .map(|i| {
                Box::new(move || {
                    if i == 1 || i == 5 {
                        panic!("boom {i}");
                    }
                    i
                }) as _
            })
            .collect();
        run_indexed(4, jobs);
    }

    #[test]
    fn surviving_jobs_still_run_after_a_panic() {
        use std::sync::atomic::AtomicU64;
        static RAN: AtomicU64 = AtomicU64::new(0);
        let jobs: Vec<Box<dyn FnOnce() -> () + Send>> = (0..16u32)
            .map(|i| {
                Box::new(move || {
                    if i == 0 {
                        panic!("early panic");
                    }
                    RAN.fetch_add(1, Ordering::Relaxed);
                }) as _
            })
            .collect();
        let caught = catch_unwind(AssertUnwindSafe(|| run_indexed(4, jobs)));
        assert!(caught.is_err());
        assert_eq!(
            RAN.load(Ordering::Relaxed),
            15,
            "a panicking job must not prevent its siblings from running"
        );
    }
}
