//! Offline stand-in for `rayon`: the indexed-parallel-iterator subset the
//! mbrpa library crates call (`par_iter` / `into_par_iter` on `Vec`, slices
//! and `Range<usize>`; `enumerate`, `zip`, `map`, `for_each`, `collect`),
//! `current_num_threads` and `ThreadPoolBuilder::build_global`.
//!
//! One persistent global pool of `threads − 1` workers; the calling thread
//! always takes part, so a parallel call made from inside a worker (nested
//! parallelism) finishes even when every other thread is busy. Items are
//! handed out one index at a time from an atomic counter (dynamic
//! scheduling, like work stealing at item granularity) and results are
//! stored by index, so `collect` keeps input order exactly as rayon does.

use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

// ---------------------------------------------------------------- pool

/// One parallel call: `n` indices to run through `func`.
struct Job {
    next: AtomicUsize,
    n: usize,
    /// (indices finished, first panic payload)
    done: Mutex<(usize, Option<Box<dyn std::any::Any + Send>>)>,
    all_done: Condvar,
    /// Borrowed from the frame of `run_indexed`, lifetime erased; see the
    /// SAFETY argument there.
    func: *const (dyn Fn(usize) + Sync),
}

// SAFETY: `func` points at a `Sync` closure, so calling it through a shared
// pointer from several threads is allowed; every other field is Send + Sync.
unsafe impl Send for Job {}
// SAFETY: as above.
unsafe impl Sync for Job {}

impl Job {
    /// Claim and run indices until none are left.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::SeqCst);
            if i >= self.n {
                return;
            }
            // SAFETY: an index below `n` was claimed, so fewer than `n`
            // indices have finished and `run_indexed` is still blocked in
            // its wait loop: the closure it borrows is alive.
            let f = unsafe { &*self.func };
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(i)));
            let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
            done.0 += 1;
            if let Err(payload) = outcome {
                done.1.get_or_insert(payload);
            }
            if done.0 == self.n {
                self.all_done.notify_all();
            }
        }
    }
}

struct Pool {
    threads: usize,
    queue: Mutex<VecDeque<Arc<Job>>>,
    wake: Condvar,
}

static POOL: OnceLock<&'static Pool> = OnceLock::new();

fn default_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn start_pool(threads: usize) -> &'static Pool {
    let pool: &'static Pool = Box::leak(Box::new(Pool {
        threads,
        queue: Mutex::new(VecDeque::new()),
        wake: Condvar::new(),
    }));
    for k in 1..threads {
        std::thread::Builder::new()
            .name(format!("rayon-stub-{k}"))
            .spawn(move || loop {
                let job = {
                    let mut q = pool.queue.lock().unwrap_or_else(|e| e.into_inner());
                    loop {
                        if let Some(j) = q.pop_front() {
                            break j;
                        }
                        q = pool.wake.wait(q).unwrap_or_else(|e| e.into_inner());
                    }
                };
                job.work();
            })
            .expect("cannot spawn pool worker");
    }
    pool
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| start_pool(default_threads()))
}

/// Number of threads parallel calls spread over (workers + the caller).
pub fn current_num_threads() -> usize {
    pool().threads
}

/// Run `f(0..n)` across the pool and return when every index has finished.
/// A panic in any index is re-raised here after the rest have finished.
fn run_indexed(n: usize, f: &(dyn Fn(usize) + Sync)) {
    let pool = pool();
    if n <= 1 || pool.threads <= 1 {
        (0..n).for_each(f);
        return;
    }
    // SAFETY: only the lifetime is erased. `Job::work` dereferences the
    // pointer solely after claiming an index < n, and this function does not
    // return (or unwind: `work` catches panics) before all n indices have
    // been counted in `done`, so no dereference outlives the borrow of `f`.
    let func: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
    let job = Arc::new(Job {
        next: AtomicUsize::new(0),
        n,
        done: Mutex::new((0, None)),
        all_done: Condvar::new(),
        func,
    });
    let helpers = (n - 1).min(pool.threads - 1);
    {
        let mut q = pool.queue.lock().unwrap_or_else(|e| e.into_inner());
        for _ in 0..helpers {
            q.push_back(Arc::clone(&job));
        }
    }
    if helpers == 1 {
        pool.wake.notify_one();
    } else {
        pool.wake.notify_all();
    }
    job.work();
    let mut done = job.done.lock().unwrap_or_else(|e| e.into_inner());
    while done.0 < n {
        done = job.all_done.wait(done).unwrap_or_else(|e| e.into_inner());
    }
    if let Some(payload) = done.1.take() {
        drop(done);
        panic::resume_unwind(payload);
    }
}

// ------------------------------------------------------- pool builder

#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("the global thread pool has already been initialized")
    }
}
impl std::error::Error for ThreadPoolBuildError {}

#[derive(Default)]
pub struct ThreadPoolBuilder {
    threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }
    /// 0 keeps the default (`RAYON_NUM_THREADS`, else the core count).
    pub fn num_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        let mut fresh = false;
        POOL.get_or_init(|| {
            fresh = true;
            start_pool(if self.threads == 0 {
                default_threads()
            } else {
                self.threads
            })
        });
        if fresh {
            Ok(())
        } else {
            Err(ThreadPoolBuildError)
        }
    }
}

// ------------------------------------------------------------ iterators

/// A parallel iterator over already-materialised items. Every source mbrpa
/// uses is a `Vec`, a slice or a short index range, so materialising costs
/// one small allocation per call.
pub struct ParIter<T> {
    items: Vec<T>,
}

pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}
impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}
impl<T: Send> IntoParallelIterator for ParIter<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        self
    }
}
impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}
impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        self.as_slice().par_iter()
    }
}

impl<T: Send> ParIter<T> {
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }
    /// Pairs up to the shorter side, like `Iterator::zip`.
    pub fn zip<U: IntoParallelIterator>(self, other: U) -> ParIter<(T, U::Item)> {
        ParIter {
            items: self
                .items
                .into_iter()
                .zip(other.into_par_iter().items)
                .collect(),
        }
    }
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> Map<T, F> {
        Map {
            items: self.items,
            f,
        }
    }
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        self.map(f).run();
    }
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

pub struct Map<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, R: Send, F: Fn(T) -> R + Sync> Map<T, F> {
    /// Apply `f` to every item in parallel; results in input order.
    fn run(self) -> Vec<R> {
        let Map { items, f } = self;
        let n = items.len();
        // one uncontended lock per item: each slot is touched by exactly the
        // thread that claimed its index
        let input: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
        let output: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        run_indexed(n, &|i| {
            let item = input[i]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("index claimed twice");
            let r = f(item);
            *output[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
        });
        output
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("index never ran")
            })
            .collect()
    }
    pub fn collect<C: FromIterator<R>>(self) -> C {
        self.run().into_iter().collect()
    }
    pub fn for_each<G: Fn(R) + Sync>(self, g: G) {
        let Map { items, f } = self;
        Map {
            items,
            f: move |x| g(f(x)),
        }
        .run();
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    // every test shares the one global pool; 3 threads exercises helpers
    fn init() {
        let _ = super::ThreadPoolBuilder::new()
            .num_threads(3)
            .build_global();
    }

    #[test]
    fn collect_keeps_order_and_for_each_visits_all() {
        init();
        let squares: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * i).collect();
        assert!(squares.iter().enumerate().all(|(i, &s)| s == i * i));
        let hits = AtomicUsize::new(0);
        let v: Vec<usize> = (0..257).collect();
        v.par_iter().enumerate().for_each(|(i, &x)| {
            assert_eq!(i, x);
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 257);
    }

    #[test]
    fn mutable_chunks_and_zip() {
        init();
        let mut data = vec![0u32; 64];
        let tags: Vec<u32> = (0..8).collect();
        let chunks: Vec<&mut [u32]> = data.chunks_mut(8).collect();
        tags.par_iter()
            .zip(chunks.into_par_iter())
            .for_each(|(&t, c)| c.fill(t));
        assert!(data.iter().enumerate().all(|(i, &x)| x == (i / 8) as u32));
    }

    #[test]
    fn nested_calls_finish_and_errors_collect() {
        init();
        let sums: Vec<usize> = (0..16usize)
            .into_par_iter()
            .map(|i| {
                // lint: allow(nested_par) — nesting is the behaviour under test: the caller must be able to finish alone
                let inner: Vec<usize> = (0..32usize).into_par_iter().map(|j| i + j).collect();
                inner.iter().sum()
            })
            .collect();
        assert_eq!(sums[3], (0..32).map(|j| 3 + j).sum::<usize>());
        let r: Result<Vec<usize>, String> = (0..10usize)
            .into_par_iter()
            .map(|i| {
                if i == 7 {
                    Err("seven".to_string())
                } else {
                    Ok(i)
                }
            })
            .collect();
        assert_eq!(r, Err("seven".to_string()));
    }

    #[test]
    fn a_panicking_item_is_re_raised_on_the_caller() {
        init();
        let caught = std::panic::catch_unwind(|| {
            (0..8usize).into_par_iter().for_each(|i| {
                if i == 5 {
                    panic!("boom");
                }
            });
        });
        assert!(caught.is_err());
        // the pool is still usable afterwards
        let v: Vec<usize> = (0..4usize).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(v, vec![1, 2, 3, 4]);
    }
}
