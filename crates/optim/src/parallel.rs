//! Deterministic fan-out over OS threads.
//!
//! The fitting pipeline parallelizes three embarrassingly parallel loops:
//! multi-start optimization (over starts), model ranking (over series ×
//! family jobs) and bootstrap bands (over replicates), one level at a
//! time. All three go through [`run_indexed`], [`run_indexed_catch`] or
//! [`run_each`], which run a job-per-index closure on a scoped thread pool
//! whose results land **in index order** — so any reduction over the
//! output is independent of scheduling, and parallel results are
//! bit-identical to serial ones.
//!
//! The pool is `std`-only (`std::thread::scope`), keeping the workspace
//! hermetic: no rayon, no crates.io. The calling thread is one of its
//! workers.

use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// How many worker threads a parallel loop may use.
///
/// Every parallel entry point in the workspace takes one of these;
/// `Serial` is guaranteed to produce bit-identical results to `Auto` and
/// `Fixed(n)` for any `n`, because each job is independent and the
/// reduction happens in index order after all jobs finish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Use [`std::thread::available_parallelism`] threads (falling back
    /// to 1 when it is unavailable), asked once per process: the first
    /// pool decision at `Auto` asks the OS (tens of microseconds), and
    /// every later one reuses its answer, so a process whose CPU affinity
    /// or quota changes after that keeps its first thread count.
    #[default]
    Auto,
    /// Use exactly `n` worker threads. `Fixed(0)` is a degenerate request
    /// ("zero workers") and normalizes to [`Parallelism::Serial`]; see
    /// [`Parallelism::normalized`].
    Fixed(usize),
    /// Run on the calling thread without spawning.
    Serial,
}

impl Parallelism {
    /// Canonicalizes degenerate values: `Fixed(0)` — a request for zero
    /// worker threads — becomes `Serial` (run on the calling thread);
    /// everything else is returned unchanged. Every consumer in the
    /// workspace goes through this, so `Fixed(0)` can never reach a
    /// thread-count computation as a raw zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use resilience_optim::Parallelism;
    /// assert_eq!(Parallelism::Fixed(0).normalized(), Parallelism::Serial);
    /// assert_eq!(Parallelism::Fixed(3).normalized(), Parallelism::Fixed(3));
    /// assert_eq!(Parallelism::Auto.normalized(), Parallelism::Auto);
    /// ```
    #[must_use]
    pub fn normalized(self) -> Parallelism {
        match self {
            Parallelism::Fixed(0) => Parallelism::Serial,
            other => other,
        }
    }

    /// Number of worker threads to use for `jobs` independent jobs.
    ///
    /// Never exceeds `jobs` and never returns 0. At most one job needs no
    /// pool, so `Auto` resolves its thread count only for two jobs or
    /// more, and once per process (see [`Parallelism::Auto`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use resilience_optim::Parallelism;
    /// assert_eq!(Parallelism::Serial.threads_for(8), 1);
    /// assert_eq!(Parallelism::Fixed(4).threads_for(8), 4);
    /// assert_eq!(Parallelism::Fixed(4).threads_for(2), 2);
    /// assert!(Parallelism::Auto.threads_for(8) >= 1);
    /// assert_eq!(Parallelism::Auto.threads_for(1), 1);
    /// ```
    #[must_use]
    pub fn threads_for(&self, jobs: usize) -> usize {
        if jobs <= 1 {
            return 1;
        }
        let cap = match self.normalized() {
            Parallelism::Serial => 1,
            Parallelism::Fixed(n) => n,
            Parallelism::Auto => available_threads(),
        };
        cap.min(jobs).max(1)
    }
}

/// [`Parallelism::Auto`]'s thread count: the OS's, asked on the first call
/// and kept for the life of the process, or 1 when it cannot tell.
// The one call site of `available_parallelism` that clippy.toml allows:
// asked per pool decision, it cost more than a one-cell ranking's fits.
#[allow(clippy::disallowed_methods)]
fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Runs `job(0..jobs)` and returns the results in index order.
///
/// Jobs are dispatched to a scoped thread pool via an atomic work
/// counter, so heterogeneous job costs balance automatically; the output
/// ordering (and therefore any deterministic reduction over it) does not
/// depend on the thread count or scheduling. With one thread (or one
/// job) everything runs on the calling thread.
///
/// A panic in `job` reaches the caller with the payload of the
/// lowest-index panicking job — the one a serial run raises — at every
/// thread count; with more than one thread, once every job has run. Use
/// [`run_indexed_catch`] to isolate panics per job instead.
pub fn run_indexed<T, F>(parallelism: Parallelism, jobs: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // On the calling thread the first panic is already the lowest-index
    // one: no catch needed.
    let threads = parallelism.threads_for(jobs);
    if threads <= 1 {
        return (0..jobs).map(job).collect();
    }
    run_caught(threads, jobs, job)
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

/// Runs `job` under [`catch_unwind`]: the one catch site of
/// [`run_indexed`], [`run_indexed_catch`] and [`catch_job`].
///
/// The closure is wrapped in [`AssertUnwindSafe`]: jobs here are pure
/// functions over shared *read-only* state, or write only state that
/// belongs to the job, so no other job can observe a partial update
/// after a panic.
fn caught<T>(job: impl FnOnce() -> T) -> std::thread::Result<T> {
    catch_unwind(AssertUnwindSafe(job))
}

/// Runs `job(0..jobs)` for its effects: the pool of [`run_indexed`]
/// without its per-job result slots, for jobs that leave their results
/// where the caller keeps them. Workers pull indices from the same atomic
/// counter, so jobs start in index order and unequal jobs balance; with
/// one thread (or one job) everything runs on the calling thread, in
/// index order.
///
/// A panic in `job` reaches the caller as in [`run_indexed`]: with the
/// payload of the lowest-index panicking job, at every thread count.
pub fn run_each<F>(parallelism: Parallelism, jobs: usize, job: F)
where
    F: Fn(usize) + Sync,
{
    let threads = parallelism.threads_for(jobs);
    if threads <= 1 {
        (0..jobs).for_each(job);
        return;
    }
    let first_panic = Mutex::new(None);
    workers(threads, jobs, |i| {
        if let Err(payload) = caught(|| job(i)) {
            let mut first = first_panic.lock().expect("panic slot poisoned");
            if first.as_ref().is_none_or(|(j, _)| i < *j) {
                *first = Some((i, payload));
            }
        }
    });
    if let Some((_, payload)) = first_panic.into_inner().expect("panic slot poisoned") {
        resume_unwind(payload);
    }
}

/// The threads of the pool: `threads` workers (the caller's one
/// [`Parallelism::threads_for`]), each pulling the next index from one
/// atomic counter until `jobs` run out. The calling thread is one of them,
/// beside `threads − 1` scoped threads, so it works rather than waits for
/// them. `job` must not panic: every caller catches inside it, which also
/// keeps a panic's payload intact, where `std::thread::scope` would
/// replace it with "a scoped thread panicked" and the caller's own loop
/// would unwind before joining the others.
fn workers<F>(threads: usize, jobs: usize, job: F)
where
    F: Fn(usize) + Sync,
{
    let next = AtomicUsize::new(0);
    let pull = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= jobs {
            break;
        }
        job(i);
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(pull);
        }
        pull();
    });
}

/// The pool behind [`run_indexed`] and [`run_indexed_catch`]: runs every
/// job [`caught`] on `threads` workers (on the calling thread for one) and
/// returns each job's result or panic payload in index order.
fn run_caught<T, F>(threads: usize, jobs: usize, job: F) -> Vec<std::thread::Result<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let job = |i: usize| caught(|| job(i));
    if threads <= 1 {
        return (0..jobs).map(job).collect();
    }
    // One slot per job: threads write disjoint slots, so the per-slot
    // mutexes are never contended.
    let slots: Vec<Mutex<Option<std::thread::Result<T>>>> =
        (0..jobs).map(|_| Mutex::new(None)).collect();
    workers(threads, jobs, |i| {
        let value = job(i);
        *slots[i].lock().expect("result slot poisoned") = Some(value);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker pool ran every job")
        })
        .collect()
}

/// A job that panicked inside [`run_indexed_catch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Index of the job that panicked.
    pub index: usize,
    /// The panic payload, if it was a string (the common case for
    /// `panic!`/`assert!`); otherwise a fixed placeholder.
    pub message: String,
}

impl fmt::Display for JobPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobPanic {}

impl JobPanic {
    fn new(index: usize, payload: Box<dyn std::any::Any + Send>) -> JobPanic {
        JobPanic {
            index,
            message: panic_message(payload),
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs job `index` on the calling thread with its panic confined to it:
/// a panic becomes `Err(JobPanic)`, with the message [`run_indexed_catch`]
/// would give it. For jobs that run on the caller between pooled phases.
///
/// # Examples
///
/// ```
/// use resilience_optim::parallel::catch_job;
/// std::panic::set_hook(Box::new(|_| {}));
/// let out = catch_job(3, || -> u32 { panic!("boom") });
/// let _ = std::panic::take_hook();
/// assert_eq!(out.unwrap_err().to_string(), "job 3 panicked: boom");
/// assert_eq!(catch_job(0, || 7), Ok(7));
/// ```
pub fn catch_job<T>(index: usize, job: impl FnOnce() -> T) -> Result<T, JobPanic> {
    caught(job).map_err(|payload| JobPanic::new(index, payload))
}

/// Like [`run_indexed`], but a panic in one job is confined to that job.
///
/// A panicking job yields `Err(JobPanic)` in its slot while every other
/// job still runs and returns its result. Output stays in index order, so
/// the serial/parallel bit-identity guarantee of [`run_indexed`] carries
/// over — including which jobs fail and with which message.
pub fn run_indexed_catch<T, F>(
    parallelism: Parallelism,
    jobs: usize,
    job: F,
) -> Vec<Result<T, JobPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_caught(parallelism.threads_for(jobs), jobs, job)
        .into_iter()
        .enumerate()
        .map(|(index, slot)| slot.map_err(|payload| JobPanic::new(index, payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_is_one_thread() {
        assert_eq!(Parallelism::Serial.threads_for(100), 1);
    }

    #[test]
    fn fixed_is_capped_by_jobs_and_floored_at_one() {
        assert_eq!(Parallelism::Fixed(8).threads_for(3), 3);
        assert_eq!(Parallelism::Fixed(0).threads_for(3), 1);
        assert_eq!(Parallelism::Fixed(2).threads_for(0), 1);
    }

    #[test]
    fn auto_is_at_least_one() {
        assert!(Parallelism::Auto.threads_for(16) >= 1);
    }

    #[test]
    fn auto_is_resolved_once_and_repeated_calls_agree() {
        let first = Parallelism::Auto.threads_for(usize::MAX);
        assert_eq!(first, available_threads());
        for jobs in [2, 3, 64, usize::MAX] {
            for _ in 0..100 {
                assert_eq!(Parallelism::Auto.threads_for(jobs), first.min(jobs));
            }
        }
    }

    #[test]
    fn default_is_auto() {
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }

    #[test]
    fn results_are_in_index_order() {
        for p in [
            Parallelism::Serial,
            Parallelism::Fixed(2),
            Parallelism::Fixed(7),
            Parallelism::Auto,
        ] {
            let out = run_indexed(p, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
            // The slot-free pool runs every index exactly once.
            let runs: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            run_each(p, 100, |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "{p:?}");
        }
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out: Vec<usize> = run_indexed(Parallelism::Auto, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // A job with uneven cost per index; every parallelism level must
        // produce the identical vector.
        let job = |i: usize| -> f64 {
            let mut acc = i as f64;
            for k in 0..(i % 13) * 100 {
                acc = (acc + k as f64).sin() + i as f64;
            }
            acc
        };
        let serial = run_indexed(Parallelism::Serial, 40, job);
        for threads in [1, 2, 3, 4, 8] {
            let parallel = run_indexed(Parallelism::Fixed(threads), 40, job);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn non_send_free_jobs_can_borrow_environment() {
        let data: Vec<u64> = (0..50).map(|i| i * 3).collect();
        let out = run_indexed(Parallelism::Fixed(4), data.len(), |i| data[i] + 1);
        assert_eq!(out[49], 49 * 3 + 1);
    }

    #[test]
    fn fixed_zero_normalizes_to_serial() {
        assert_eq!(Parallelism::Fixed(0).normalized(), Parallelism::Serial);
        assert_eq!(Parallelism::Fixed(1).normalized(), Parallelism::Fixed(1));
        assert_eq!(Parallelism::Serial.normalized(), Parallelism::Serial);
        assert_eq!(Parallelism::Auto.normalized(), Parallelism::Auto);
        // And the normalized form drives scheduling: zero workers means
        // "run on the calling thread", not a panic or a zero thread count.
        assert_eq!(Parallelism::Fixed(0).threads_for(10), 1);
        let out = run_indexed(Parallelism::Fixed(0), 5, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    fn silence_panics<T>(f: impl FnOnce() -> T) -> T {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    #[test]
    fn catch_isolates_panicking_jobs() {
        for p in [Parallelism::Serial, Parallelism::Fixed(3)] {
            let out = silence_panics(|| {
                run_indexed_catch(p, 6, |i| {
                    if i == 2 {
                        panic!("boom at {i}");
                    }
                    i * 10
                })
            });
            assert_eq!(out.len(), 6);
            for (i, r) in out.iter().enumerate() {
                if i == 2 {
                    let e = r.as_ref().unwrap_err();
                    assert_eq!(e.index, 2);
                    assert_eq!(e.message, "boom at 2");
                    assert_eq!(e.to_string(), "job 2 panicked: boom at 2");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 10);
                }
            }
        }
    }

    #[test]
    fn run_indexed_and_run_each_raise_the_serial_panic_at_every_thread_count() {
        for p in [
            Parallelism::Serial,
            Parallelism::Fixed(2),
            Parallelism::Fixed(4),
        ] {
            let payload = silence_panics(|| {
                catch_unwind(|| {
                    run_indexed(p, 8, |i| {
                        if i % 3 == 1 {
                            panic!("boom at {i}");
                        }
                        i
                    })
                })
            })
            .unwrap_err();
            assert_eq!(panic_message(payload), "boom at 1", "{p:?}");
            let payload = silence_panics(|| {
                catch_unwind(|| {
                    run_each(p, 8, |i| {
                        if i % 3 == 1 {
                            panic!("boom at {i}");
                        }
                    })
                })
            })
            .unwrap_err();
            assert_eq!(panic_message(payload), "boom at 1", "run_each {p:?}");
        }
    }

    #[test]
    fn catch_reports_non_string_payloads() {
        let out = silence_panics(|| {
            run_indexed_catch(Parallelism::Serial, 1, |_| -> usize {
                std::panic::panic_any(42_i32)
            })
        });
        assert_eq!(
            out[0].as_ref().unwrap_err().message,
            "non-string panic payload"
        );
    }

    #[test]
    fn catch_matches_run_indexed_when_nothing_panics() {
        let plain = run_indexed(Parallelism::Fixed(2), 20, |i| i * i);
        let caught = run_indexed_catch(Parallelism::Fixed(2), 20, |i| i * i);
        let caught: Vec<usize> = caught.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(plain, caught);
    }
}
