//! Deterministic fan-out over OS threads.
//!
//! The fitting pipeline parallelizes three embarrassingly parallel loops:
//! multi-start optimization (over starts), model ranking (over series ×
//! family jobs) and bootstrap bands (over replicates), one level at a
//! time. All three run on a [`crew`]: the threads of one library call,
//! which runs the call's parallel *phases* one after another. A phase is
//! a job-per-index closure whose indices go out from one atomic counter,
//! in index order, and whose results land **in index order** — so any
//! reduction over them is independent of scheduling, and parallel results
//! are bit-identical to serial ones. [`run_each`] is a one-phase crew.
//!
//! The crew is `std`-only (`std::thread::scope`), keeping the workspace
//! hermetic: no rayon, no crates.io. The calling thread is one of its
//! workers, and it spawns its helpers once a phase can use them.

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// How many times an idle crew thread polls before it parks, with a
/// [`std::hint::spin_loop`] between polls: a helper between phases, for
/// the next phase or the close, and a poster at the end of its phase, for
/// the helpers still in it. What is posted within the spin costs no
/// condvar handshake (DESIGN.md §7).
const SPIN: u32 = 1 << 14;

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

/// Runs `calls` with a crew of at most `parallelism`'s threads, and
/// returns what it returns.
///
/// The calling thread is one of the crew, and runs the phases that
/// `calls` posts ([`Crew::run_each`], [`Crew::run_indexed_catch`]) one
/// after another. A phase of `jobs` jobs brings the crew up to
/// [`Parallelism::threads_for`]`(jobs) − 1` helpers, and at most that many
/// of them join it. So the crew never holds more threads than its largest
/// phase can use, and a crew whose phases all have at most one job spawns
/// nothing. Between phases the helpers park, and when `calls` returns or
/// unwinds they are joined.
///
/// A phase's job is `Send + Sync + 'env`, and `'env` outlives this call:
/// a phase borrows only what existed before the crew, and owns whatever
/// `calls` makes for it, which it drops when it ends.
///
/// # Examples
///
/// ```
/// use resilience_optim::parallel::crew;
/// use resilience_optim::Parallelism;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let weights = [1, 2, 3, 4];
/// let total = AtomicUsize::new(0);
/// crew(Parallelism::Fixed(2), |crew| {
///     // A phase borrows what existed before the crew...
///     crew.run_each(4, |i| {
///         total.fetch_add(weights[i], Ordering::Relaxed);
///     });
///     // ...and owns what the calls made for it.
///     let doubled: Vec<usize> = weights.iter().map(|w| 2 * w).collect();
///     let total = &total;
///     crew.run_each(4, move |i| {
///         total.fetch_add(doubled[i], Ordering::Relaxed);
///     });
/// });
/// assert_eq!(total.into_inner(), 30);
/// ```
///
/// A phase cannot borrow what the calls made:
///
/// ```compile_fail,E0373
/// use resilience_optim::parallel::crew;
/// use resilience_optim::Parallelism;
///
/// crew(Parallelism::Fixed(2), |crew| {
///     let made = vec![1, 2, 3];
///     crew.run_each(3, |i| assert!(made[i] > 0));
/// });
/// ```
// The one call site of `std::thread::scope` that clippy.toml allows:
// every thread the library starts is a crew's helper.
#[allow(clippy::disallowed_methods)]
pub fn crew<'env, R>(parallelism: Parallelism, calls: impl FnOnce(&Crew<'_, 'env>) -> R) -> R {
    let board = &Board::default();
    if parallelism.threads_for(usize::MAX) <= 1 {
        return calls(&Crew::new(parallelism, board, None));
    }
    std::thread::scope(|scope| {
        let _close = Close(board);
        let spawn = |seen| {
            scope.spawn(move || board.serve(seen));
        };
        calls(&Crew::new(parallelism, board, Some(&spawn)))
    })
}

/// The threads of one library call: the calling thread and the helpers
/// that its phases have spawned (see [`crew`]).
pub struct Crew<'c, 'env> {
    parallelism: Parallelism,
    board: &'c Board<'env>,
    /// Spawns a helper that has seen the given post. `None` when no phase
    /// can use a helper: every phase then runs on the calling thread, and
    /// the crew opens no scope.
    spawn: Option<&'c dyn Fn(usize)>,
    helpers: Cell<usize>,
}

impl<'c, 'env> Crew<'c, 'env> {
    fn new(
        parallelism: Parallelism,
        board: &'c Board<'env>,
        spawn: Option<&'c dyn Fn(usize)>,
    ) -> Crew<'c, 'env> {
        Crew {
            parallelism,
            board,
            spawn,
            helpers: Cell::new(0),
        }
    }

    /// Runs `job(0..jobs)` for its effects, as one phase of the crew.
    ///
    /// Threads pull indices from one atomic counter, so jobs start in index
    /// order and unequal jobs balance; with one thread (or one job)
    /// everything runs on the calling thread, in index order. A panic in
    /// `job` reaches the caller with the payload of the lowest-index
    /// panicking job — the one a serial run raises — at every thread count;
    /// with more than one thread, once every job of the phase has run. The
    /// crew's next phase still runs every job.
    pub fn run_each<F>(&self, jobs: usize, job: F)
    where
        F: Fn(usize) + Send + Sync + 'env,
    {
        let threads = self.parallelism.threads_for(jobs);
        if threads <= 1 {
            // On the calling thread the first panic is already the
            // lowest-index one: no catch needed.
            (0..jobs).for_each(job);
            return;
        }
        self.hire(threads - 1);
        self.board.run(Arc::new(job), jobs, threads - 1);
        if let Some((_, payload)) = self.board.take_panic() {
            resume_unwind(payload);
        }
    }

    /// Runs `job(0..jobs)` as one phase of the crew, with a panic in one
    /// job confined to that job, and returns the results in index order.
    ///
    /// A panicking job yields `Err(JobPanic)` in its slot while every other
    /// job still runs and returns its result. The output is in index order
    /// whatever the thread count, so which jobs fail, and with which
    /// message, is too.
    pub fn run_indexed_catch<T, F>(&self, jobs: usize, job: F) -> Vec<Result<T, JobPanic>>
    where
        T: Send + 'env,
        F: Fn(usize) -> T + Send + Sync + 'env,
    {
        if self.parallelism.threads_for(jobs) <= 1 {
            return (0..jobs).map(|i| catch_job(i, || job(i))).collect();
        }
        // One slot per job: threads write disjoint slots, so the per-slot
        // mutexes are never contended.
        let slots: Arc<[Mutex<_>]> = (0..jobs).map(|_| Mutex::new(None)).collect();
        let filled = Arc::clone(&slots);
        self.run_each(jobs, move |i| {
            let result = catch_job(i, || job(i));
            *filled[i].lock().expect("result slot poisoned") = Some(result);
        });
        slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("result slot poisoned")
                    .take()
                    .expect("the crew ran every job")
            })
            .collect()
    }

    /// Spawns helpers until the crew has `helpers` of them.
    fn hire(&self, helpers: usize) {
        let Some(spawn) = self.spawn else {
            return;
        };
        while self.helpers.get() < helpers {
            spawn(self.board.posts.load(Ordering::Relaxed));
            self.helpers.set(self.helpers.get() + 1);
        }
    }
}

/// A phase's job, as the crew's threads share it.
type Job<'env> = Arc<dyn Fn(usize) + Send + Sync + 'env>;

/// What a crew's threads share: the posted phase, and where they meet at
/// its start and its end.
#[derive(Default)]
struct Board<'env> {
    state: Mutex<State<'env>>,
    /// Bumped under `state`'s lock whenever a phase is posted or the crew
    /// closes: what a helper polls between phases. A helper that sees it
    /// move takes the lock before it reads the phase.
    posts: AtomicUsize,
    /// The helpers inside the posted phase, changed under `state`'s lock:
    /// what the poster polls at the end of its phase. A helper leaves with
    /// a `Release` decrement, after its last job and after dropping its
    /// handle on the job, and the poster reads it with `Acquire`: a poster
    /// that reads 0 sees everything the phase's jobs wrote.
    working: AtomicUsize,
    /// The dispatch counter: the posted phase's next job index. It
    /// publishes nothing (`Relaxed`), and is reset under `state`'s lock,
    /// which every helper takes before it joins a phase.
    next: AtomicUsize,
    /// The posted phase's lowest-index panic.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
    /// Where helpers park between phases.
    posted: Condvar,
    /// Where the poster parks until the helpers have left its phase.
    left: Condvar,
}

/// The board's locked part.
#[derive(Default)]
struct State<'env> {
    /// The posted phase's job and job count, while it takes helpers.
    phase: Option<(Job<'env>, usize)>,
    /// How many more helpers the posted phase takes.
    seats: usize,
    /// The helpers parked on `posted`.
    parked: usize,
    /// Whether the poster is parked on `left`.
    waiting: bool,
    /// Whether the crew's call is over.
    closed: bool,
}

impl<'env> Board<'env> {
    /// The board's state. No code that can panic runs under this lock, so
    /// it is never poisoned, and each update under it is one field write
    /// that leaves the state valid; the guard is recovered rather than
    /// raising a panic in `Close::drop`, which runs while unwinding.
    fn lock(&self) -> MutexGuard<'_, State<'env>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The poster's side of a phase: resets the counter and posts `job`
    /// for up to `seats` helpers, runs jobs on the calling thread until
    /// they run out, stops taking helpers, and waits only for the helpers
    /// that joined. The job, and whatever it owns, goes with the phase.
    fn run(&self, job: Job<'env>, jobs: usize, seats: usize) {
        let wake = {
            let mut state = self.lock();
            self.next.store(0, Ordering::Relaxed);
            state.phase = Some((Arc::clone(&job), jobs));
            state.seats = seats;
            self.posts.fetch_add(1, Ordering::Release);
            state.parked.min(seats)
        };
        for _ in 0..wake {
            self.posted.notify_one();
        }
        self.pull(&*job, jobs);
        let posted = {
            let mut state = self.lock();
            state.seats = 0;
            state.phase.take()
        };
        drop(posted);
        if !spin(|| self.working.load(Ordering::Acquire) == 0) {
            let mut state = self.lock();
            state.waiting = true;
            while self.working.load(Ordering::Acquire) > 0 {
                state = self
                    .left
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.waiting = false;
        }
    }

    /// Runs jobs of the posted phase until its counter passes `jobs`,
    /// catching each, and keeps the lowest-index panic's payload.
    fn pull(&self, job: &(dyn Fn(usize) + Send + Sync + 'env), jobs: usize) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                return;
            }
            if let Err(payload) = caught(|| job(i)) {
                let mut first = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
                if first.as_ref().is_none_or(|(j, _)| i < *j) {
                    *first = Some((i, payload));
                }
            }
        }
    }

    /// The last phase's lowest-index panic, if a job panicked.
    fn take_panic(&self) -> Option<(usize, Box<dyn Any + Send>)> {
        self.panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    /// A helper's life: it joins each phase posted after `seen` that has a
    /// seat for it and runs its jobs, until the crew closes.
    fn serve(&self, mut seen: usize) {
        while let Some((job, jobs)) = self.claim(&mut seen) {
            self.pull(&*job, jobs);
            // The job goes before the poster can see this helper leave, so
            // it drops with its phase, on the calling thread.
            drop(job);
            let state = self.lock();
            if self.working.fetch_sub(1, Ordering::Release) == 1 && state.waiting {
                self.left.notify_one();
            }
        }
    }

    /// Waits for a phase posted after `seen` and takes a seat in it, or
    /// `None` once the crew closes. A phase that no longer takes helpers
    /// is passed over: its jobs ran out.
    fn claim(&self, seen: &mut usize) -> Option<(Job<'env>, usize)> {
        spin(|| self.posts.load(Ordering::Acquire) != *seen);
        let mut state = self.lock();
        loop {
            if state.closed {
                return None;
            }
            let posts = self.posts.load(Ordering::Relaxed);
            if posts != *seen {
                *seen = posts;
                if let (true, Some((job, jobs))) = (state.seats > 0, &state.phase) {
                    let claimed = (Arc::clone(job), *jobs);
                    state.seats -= 1;
                    self.working.fetch_add(1, Ordering::Relaxed);
                    return Some(claimed);
                }
            }
            state.parked += 1;
            state = self
                .posted
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.parked -= 1;
        }
    }
}

/// Closes its crew when dropped, on return or while unwinding: the
/// helpers leave, so the scope's join ends.
struct Close<'a, 'env>(&'a Board<'env>);

impl Drop for Close<'_, '_> {
    fn drop(&mut self) {
        let board = self.0;
        let wake = {
            let mut state = board.lock();
            state.closed = true;
            board.posts.fetch_add(1, Ordering::Release);
            state.parked > 0
        };
        if wake {
            board.posted.notify_all();
        }
    }
}

/// Polls `ready` up to [`SPIN`] times, with a spin-loop hint between
/// polls: whether it came true.
fn spin(ready: impl Fn() -> bool) -> bool {
    for _ in 0..SPIN {
        if ready() {
            return true;
        }
        std::hint::spin_loop();
    }
    ready()
}

/// Runs `job` under [`catch_unwind`]: the one catch site of the crew, of
/// [`catch_job`] and of the race driver's starts
/// ([`crate::multi_start::multi_start`]).
///
/// The closure is wrapped in [`AssertUnwindSafe`]: jobs here are pure
/// functions over shared *read-only* state, or write only state that
/// belongs to the job, so no other job can observe a partial update
/// after a panic.
pub(crate) fn caught<T>(job: impl FnOnce() -> T) -> std::thread::Result<T> {
    catch_unwind(AssertUnwindSafe(job))
}

/// Runs `job(0..jobs)` for its effects, as a one-phase [`crew`], for jobs
/// that leave their results where the caller keeps them; a phase that
/// cannot use a helper opens no scope. See [`Crew::run_each`] for the
/// dispatch order and the panic rule.
pub fn run_each<F>(parallelism: Parallelism, jobs: usize, job: F)
where
    F: Fn(usize) + Sync,
{
    if parallelism.threads_for(jobs) <= 1 {
        (0..jobs).for_each(job);
        return;
    }
    let job = &job;
    crew(parallelism, |crew| crew.run_each(jobs, job));
}

/// A job that panicked inside [`Crew::run_indexed_catch`].
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
/// a panic becomes `Err(JobPanic)`, with the message
/// [`Crew::run_indexed_catch`] would give it. For jobs that run on the
/// caller between a crew's phases.
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

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

    /// `job(0..jobs)`'s results in index order, as the one phase of a crew
    /// with each job's panic confined to it.
    fn indexed<'env, T, F>(p: Parallelism, jobs: usize, job: F) -> Vec<Result<T, JobPanic>>
    where
        T: Send + 'env,
        F: Fn(usize) -> T + Send + Sync + 'env,
    {
        crew(p, |crew| crew.run_indexed_catch(jobs, job))
    }

    /// [`indexed`]'s results, none of which may be a panic.
    fn unwrapped<T>(results: Vec<Result<T, JobPanic>>) -> Vec<T> {
        results.into_iter().map(Result::unwrap).collect()
    }

    #[test]
    fn results_are_in_index_order() {
        for p in [
            Parallelism::Serial,
            Parallelism::Fixed(2),
            Parallelism::Fixed(7),
            Parallelism::Auto,
        ] {
            let out = unwrapped(indexed(p, 100, |i| i * i));
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
        let out: Vec<Result<usize, JobPanic>> = indexed(Parallelism::Auto, 0, |i| i);
        assert!(out.is_empty());
        run_each(Parallelism::Auto, 0, |i| panic!("job {i} of none ran"));
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
        let serial = unwrapped(indexed(Parallelism::Serial, 40, job));
        for threads in [1, 2, 3, 4, 8] {
            let parallel = unwrapped(indexed(Parallelism::Fixed(threads), 40, job));
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn non_send_free_jobs_can_borrow_environment() {
        let data: Vec<u64> = (0..50).map(|i| i * 3).collect();
        let out: Vec<Mutex<u64>> = (0..50).map(|_| Mutex::new(0)).collect();
        run_each(Parallelism::Fixed(4), data.len(), |i| {
            *out[i].lock().unwrap() = data[i] + 1;
        });
        assert_eq!(*out[49].lock().unwrap(), 49 * 3 + 1);
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
        let out = unwrapped(indexed(Parallelism::Fixed(0), 5, |i| i + 1));
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        let seen = Mutex::new(HashSet::new());
        run_each(Parallelism::Fixed(0), 5, |_| note(&seen));
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen, HashSet::from([std::thread::current().id()]));
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
                indexed(p, 6, |i| {
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
    fn run_each_raises_the_serial_panic_at_every_thread_count() {
        for p in [
            Parallelism::Serial,
            Parallelism::Fixed(2),
            Parallelism::Fixed(4),
        ] {
            let job = |i: usize| {
                if i % 3 == 1 {
                    panic!("boom at {i}");
                }
            };
            let payload = silence_panics(|| catch_unwind(|| run_each(p, 8, job))).unwrap_err();
            assert_eq!(panic_message(payload), "boom at 1", "run_each {p:?}");
            let payload = silence_panics(|| catch_unwind(|| crew(p, |crew| crew.run_each(8, job))))
                .unwrap_err();
            assert_eq!(panic_message(payload), "boom at 1", "Crew::run_each {p:?}");
        }
    }

    /// Records the thread that runs a job.
    fn note(seen: &Mutex<HashSet<ThreadId>>) {
        seen.lock().unwrap().insert(std::thread::current().id());
    }

    /// A job of uneven cost, so that helpers get jobs too.
    fn work(i: usize) -> f64 {
        (0..2_000 + (i % 7) * 500).map(|k| (k as f64).sqrt()).sum()
    }

    #[test]
    fn a_crew_keeps_its_threads_across_phases() {
        let seen = Mutex::new(HashSet::new());
        let phases = [8, 3, 64, 2, 20];
        let runs: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        crew(Parallelism::Fixed(3), |crew| {
            for jobs in phases {
                crew.run_each(jobs, |i| {
                    note(&seen);
                    std::hint::black_box(work(i));
                    runs[i].fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        let threads = seen.into_inner().unwrap().len();
        assert!(threads <= 3, "{threads} threads over five phases");
        // Every phase ran each of its jobs once.
        for (i, runs) in runs.iter().enumerate() {
            let phases_with_i = phases.iter().filter(|&&jobs| i < jobs).count();
            assert_eq!(runs.load(Ordering::Relaxed), phases_with_i, "job {i}");
        }
    }

    #[test]
    fn a_crew_of_single_jobs_stays_on_the_calling_thread() {
        let seen = Mutex::new(HashSet::new());
        let out = crew(Parallelism::Fixed(4), |crew| {
            crew.run_each(1, |_| note(&seen));
            crew.run_each(0, |_| note(&seen));
            let out = crew.run_indexed_catch(1, |i| {
                note(&seen);
                i + 7
            });
            crew.run_each(1, |_| note(&seen));
            out
        });
        assert_eq!(out, vec![Ok(7)]);
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen, HashSet::from([std::thread::current().id()]));
    }

    #[test]
    fn a_crew_spawns_only_what_its_largest_phase_can_use() {
        let seen = Mutex::new(HashSet::new());
        crew(Parallelism::Fixed(8), |crew| {
            for _ in 0..5 {
                crew.run_each(2, |i| {
                    note(&seen);
                    std::hint::black_box(work(i));
                });
            }
        });
        let threads = seen.into_inner().unwrap().len();
        assert!(threads <= 2, "{threads} threads for phases of 2 jobs");
    }

    #[test]
    fn each_phase_raises_its_lowest_panic_and_the_crew_runs_on() {
        let runs: Vec<AtomicUsize> = (0..10).map(|_| AtomicUsize::new(0)).collect();
        let (first, second, caught) = silence_panics(|| {
            crew(Parallelism::Fixed(3), |crew| {
                let first = catch_unwind(AssertUnwindSafe(|| {
                    crew.run_each(9, |i| {
                        runs[i].fetch_add(1, Ordering::Relaxed);
                        if i % 3 == 1 {
                            panic!("boom at {i}");
                        }
                        std::hint::black_box(work(i));
                    })
                }));
                let second = catch_unwind(AssertUnwindSafe(|| {
                    crew.run_each(10, |i| {
                        runs[i].fetch_add(1, Ordering::Relaxed);
                        if i == 8 {
                            panic!("boom at {i}");
                        }
                    })
                }));
                let caught = crew.run_indexed_catch(6, |i| {
                    if i == 4 {
                        panic!("boom at {i}");
                    }
                    i * 10
                });
                (first, second, caught)
            })
        });
        // Each phase raised its own lowest panic, once all its jobs ran.
        assert_eq!(panic_message(first.unwrap_err()), "boom at 1");
        assert_eq!(panic_message(second.unwrap_err()), "boom at 8");
        let runs: Vec<usize> = runs.iter().map(|r| r.load(Ordering::Relaxed)).collect();
        assert_eq!(runs, [2, 2, 2, 2, 2, 2, 2, 2, 2, 1]);
        assert_eq!(
            caught[4].as_ref().unwrap_err().to_string(),
            "job 4 panicked: boom at 4"
        );
        for i in [0, 1, 2, 3, 5] {
            assert_eq!(caught[i], Ok(i * 10));
        }
    }

    #[test]
    fn a_panic_between_phases_leaves_the_crew() {
        for p in [
            Parallelism::Serial,
            Parallelism::Fixed(2),
            Parallelism::Fixed(4),
        ] {
            let ran = AtomicUsize::new(0);
            let unwound: std::thread::Result<()> = silence_panics(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    crew(p, |crew| {
                        crew.run_each(16, |i| {
                            std::hint::black_box(work(i));
                            ran.fetch_add(1, Ordering::Relaxed);
                        });
                        panic!("between phases");
                    })
                }))
            });
            assert_eq!(
                panic_message(unwound.unwrap_err()),
                "between phases",
                "{p:?}"
            );
            assert_eq!(ran.into_inner(), 16, "{p:?}");
        }
    }

    #[test]
    fn catch_reports_non_string_payloads() {
        let out = silence_panics(|| {
            indexed(Parallelism::Serial, 1, |_| -> usize {
                std::panic::panic_any(42_i32)
            })
        });
        assert_eq!(
            out[0].as_ref().unwrap_err().message,
            "non-string panic payload"
        );
    }

    #[test]
    fn catch_matches_run_each_when_nothing_panics() {
        let plain: Vec<Mutex<usize>> = (0..20).map(|_| Mutex::new(0)).collect();
        run_each(Parallelism::Fixed(2), 20, |i| {
            *plain[i].lock().unwrap() = i * i
        });
        let plain: Vec<usize> = plain.into_iter().map(|m| m.into_inner().unwrap()).collect();
        let caught = unwrapped(indexed(Parallelism::Fixed(2), 20, |i| i * i));
        assert_eq!(plain, caught);
    }
}
