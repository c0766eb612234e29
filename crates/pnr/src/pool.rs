//! A lazily-initialized global worker pool for the data-parallel
//! placement phases.
//!
//! The workspace builds fully offline, so the external `rayon` crate
//! is replaced by this minimal work-sharing pool: one process-wide set
//! of persistent worker threads (sized by the `GGPU_THREADS`
//! environment variable, read once at first use, falling back to
//! [`std::thread::available_parallelism`]) shared by every parallel
//! placement call — no per-call thread construction, mirroring how
//! `rayon::ThreadPoolBuilder::build_global` would be wired.
//!
//! [`Pool::map`] is deterministic by construction: every job is a pure
//! function of its input, results are collected by input index, and no
//! floating-point reduction depends on scheduling order — so the same
//! inputs produce byte-identical outputs on 1 or N threads (asserted
//! by `tests/prop_place.rs`).
//!
//! The calling thread participates in draining the queue while it
//! waits, which makes nested [`Pool::map`] calls deadlock-free: a
//! worker that issues a sub-map executes queued jobs itself instead of
//! blocking idle.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;

type Job = Box<dyn FnOnce() + Send>;

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    closed: Mutex<bool>,
}

/// A fixed-size work-sharing thread pool. Use [`Pool::global`] in
/// production code; explicit [`Pool::new`] instances exist so the
/// determinism property tests can compare thread counts within one
/// process.
pub struct Pool {
    threads: usize,
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish()
    }
}

/// Recovers a poisoned lock: jobs run under `catch_unwind`, so the
/// protected queue state is always consistent.
fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, std::sync::PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Renders a caught panic payload as the human-readable message most
/// panics carry (`&str` or `String`), falling back to a generic label
/// for exotic payloads. The planner's flow supervisor renders every
/// panic it isolates with it.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    "non-string panic payload".to_string()
}

/// Worker-thread count for the global pool: `GGPU_THREADS` if set to a
/// positive integer, otherwise the host parallelism.
pub fn configured_threads() -> usize {
    std::env::var("GGPU_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

impl Pool {
    /// The process-wide pool, created on first use with
    /// [`configured_threads`] workers. Subsequent changes to
    /// `GGPU_THREADS` do not resize it.
    pub fn global() -> &'static Pool {
        GLOBAL.get_or_init(|| Pool::new(configured_threads()))
    }

    /// A pool with `threads` workers (`threads - 1` spawned threads;
    /// the caller of [`Pool::map`] is the remaining worker). A pool of
    /// 0 or 1 threads runs every map inline with no queue traffic.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            closed: Mutex::new(false),
        });
        let workers = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self {
            threads,
            shared,
            workers,
        }
    }

    /// The pool's worker count (including the participating caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `inputs`, returning results in input order.
    ///
    /// Jobs are handed to the shared queue; the calling thread drains
    /// the queue alongside the workers until its own results are
    /// complete, so nested maps cannot deadlock. A panicking job is
    /// caught on the worker and re-raised here after the remaining
    /// jobs settle.
    pub fn map<I, T, F>(&self, inputs: Vec<I>, f: F) -> Vec<T>
    where
        I: Send + 'static,
        T: Send + 'static,
        F: Fn(I) -> T + Send + Sync + 'static,
    {
        let n = inputs.len();
        if n == 0 {
            return Vec::new();
        }
        if self.threads <= 1 || n == 1 {
            return inputs.into_iter().map(f).collect();
        }
        let f = Arc::new(f);
        let (tx, rx) = channel::<(usize, thread::Result<T>)>();
        {
            let mut queue = relock(self.shared.queue.lock());
            for (idx, input) in inputs.into_iter().enumerate() {
                let f = Arc::clone(&f);
                let tx: Sender<(usize, thread::Result<T>)> = tx.clone();
                queue.push_back(Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| f(input)));
                    // The receiver may be gone if the caller already
                    // panicked out of `map`; dropping the result then
                    // is fine.
                    let _ = tx.send((idx, result));
                }));
            }
        }
        self.shared.available.notify_all();
        drop(tx);

        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut panic_payload = None;
        let mut done = 0;
        while done < n {
            // Collect whatever has already finished.
            while let Ok((idx, result)) = rx.try_recv() {
                match result {
                    Ok(v) => out[idx] = Some(v),
                    Err(p) => {
                        panic_payload.get_or_insert(p);
                    }
                }
                done += 1;
            }
            if done >= n {
                break;
            }
            // Help: run one queued job (ours or a sibling map's)...
            let job = relock(self.shared.queue.lock()).pop_front();
            match job {
                Some(job) => job(),
                // ...or, with the queue drained, wait for stragglers
                // still running on workers. The channel cannot close
                // early: every undelivered result holds a sender.
                None => {
                    if let Ok((idx, result)) = rx.recv() {
                        match result {
                            Ok(v) => out[idx] = Some(v),
                            Err(p) => {
                                panic_payload.get_or_insert(p);
                            }
                        }
                        done += 1;
                    }
                }
            }
        }
        if let Some(payload) = panic_payload {
            resume_unwind(payload);
        }
        out.into_iter()
            .map(|v| v.unwrap_or_else(|| unreachable!("every job reported")))
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        *relock(self.shared.closed.lock()) = true;
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = relock(shared.queue.lock());
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if *relock(shared.closed.lock()) {
                    break None;
                }
                queue = relock(shared.available.wait(queue));
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let pool = Pool::new(4);
        let squares = pool.map((0..97usize).collect(), |i| i * i);
        assert_eq!(squares, (0..97).map(|i| i * i).collect::<Vec<_>>());
        // Degenerate sizes fall back to inline execution.
        let one = Pool::new(1);
        assert_eq!(one.map(vec![7usize], |i| i + 1), vec![8]);
        assert_eq!(one.map(Vec::<usize>::new(), |i| i), Vec::<usize>::new());
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let work = |i: usize| {
            let mut acc = i as f64;
            for k in 1..200 {
                acc += (i * k) as f64 / (k as f64);
            }
            acc.to_bits()
        };
        let seq = Pool::new(1).map((0..64).collect(), work);
        for threads in [2, 3, 8] {
            let par = Pool::new(threads).map((0..64).collect(), work);
            assert_eq!(seq, par, "{threads} threads");
        }
    }

    #[test]
    fn nested_maps_do_not_deadlock() {
        let pool = Arc::new(Pool::new(2));
        let p2 = Arc::clone(&pool);
        let sums = pool.map((0..8usize).collect(), move |i| {
            p2.map((0..8usize).collect(), move |j| i * 10 + j)
                .into_iter()
                .sum::<usize>()
        });
        assert_eq!(sums.len(), 8);
        assert_eq!(sums[3], (0..8).map(|j| 30 + j).sum::<usize>());
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = Pool::new(3);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map((0..16usize).collect(), |i| {
                assert!(i != 11, "boom");
                i
            })
        }));
        assert!(result.is_err());
        // The pool survives a panicked map.
        assert_eq!(pool.map(vec![1usize, 2], |i| i * 2), vec![2, 4]);
    }

    #[test]
    fn panic_messages_render_str_and_string_payloads() {
        let p = catch_unwind(|| panic!("plain str")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "plain str");
        let p = catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "formatted 7");
        let p = catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "non-string panic payload");
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = Pool::global() as *const Pool;
        let b = Pool::global() as *const Pool;
        assert_eq!(a, b);
        assert!(Pool::global().threads() >= 1);
    }
}
