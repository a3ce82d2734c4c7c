//! Shared-queue thread pool and order-preserving parallel maps.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crossbeam::channel;

/// Lock a result slot or the panic record, recovering from poison: the
/// critical sections are single assignments, which cannot be left half
/// done.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Unwrap a mutex once every worker has joined, recovering from poison
/// like [`lock`].
fn into_inner<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// A scoped thread pool over a shared work queue.
///
/// Workers pull indices from an atomic counter, so load balances naturally
/// when items have uneven cost (a concurrency-8 simulation takes ~8× a
/// concurrency-1 run). Results land in their input slot, preserving order.
///
/// The pool is created per call — thread spawn cost is negligible next to
/// the simulations being run, and scoped threads let closures borrow from
/// the caller without `'static` bounds.
pub struct ThreadPool {
    workers: usize,
}

impl ThreadPool {
    /// Pool with an explicit worker count (minimum 1).
    pub fn new(workers: usize) -> Self {
        ThreadPool {
            workers: workers.max(1),
        }
    }

    /// Pool sized to the machine's available parallelism.
    pub fn with_available_parallelism() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ThreadPool { workers: n }
    }

    /// Number of worker threads this pool will use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Order-preserving parallel map over a slice.
    ///
    /// Panics in `f` are propagated to the caller after all workers stop
    /// (no deadlock, no lost panic).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(n);
        if workers == 1 {
            return items.iter().map(f).collect();
        }

        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let slots = Mutex::new(&mut slots);
        let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                        Ok(r) => {
                            lock(&slots)[i] = Some(r);
                        }
                        Err(p) => {
                            *lock(&panic_payload) = Some(p);
                            // Drain remaining work so peers exit promptly.
                            next.store(n, Ordering::Relaxed);
                            break;
                        }
                    }
                });
            }
        });

        if let Some(p) = into_inner(panic_payload) {
            resume_unwind(p);
        }
        into_inner(slots)
            .iter_mut()
            .map(|s| s.take().expect("worker left a result slot empty"))
            .collect()
    }

    /// Parallel for-each without collecting results.
    pub fn for_each<T, F>(&self, items: &[T], f: F)
    where
        T: Sync,
        F: Fn(&T) + Sync,
    {
        let _ = self.map(items, |t| {
            f(t);
        });
    }

    /// Run a set of independent closures, returning their results in order.
    /// Useful when the tasks are heterogeneous rather than a map over data.
    pub fn join_all<R, F>(&self, tasks: Vec<F>) -> Vec<R>
    where
        R: Send,
        F: FnOnce() -> R + Send,
    {
        if tasks.is_empty() {
            return Vec::new();
        }
        // Wrap each FnOnce in an Option so the shared-queue workers can take
        // them through a channel.
        let (tx, rx) = channel::unbounded::<(usize, F)>();
        for (i, t) in tasks.into_iter().enumerate() {
            tx.send((i, t)).expect("queue send");
        }
        drop(tx);

        let n = rx.len();
        let workers = self.workers.min(n).max(1);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let slots = Mutex::new(&mut slots);
        let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

        std::thread::scope(|scope| {
            let slots = &slots;
            let panic_payload = &panic_payload;
            for _ in 0..workers {
                let rx = rx.clone();
                scope.spawn(move || {
                    for (i, task) in rx.iter() {
                        match catch_unwind(AssertUnwindSafe(task)) {
                            Ok(r) => {
                                lock(slots)[i] = Some(r);
                            }
                            Err(p) => {
                                *lock(panic_payload) = Some(p);
                                return;
                            }
                        }
                    }
                });
            }
        });

        if let Some(p) = into_inner(panic_payload) {
            resume_unwind(p);
        }
        into_inner(slots)
            .iter_mut()
            .map(|s| s.take().expect("task left a result slot empty"))
            .collect()
    }
}

/// Order-preserving parallel map with `workers` threads.
///
/// Convenience wrapper over [`ThreadPool::map`].
pub fn par_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    ThreadPool::new(workers).map(items, f)
}

/// Parallel for-each with `workers` threads.
pub fn par_for_each<T, F>(workers: usize, items: &[T], f: F)
where
    T: Sync,
    F: Fn(&T) + Sync,
{
    ThreadPool::new(workers).for_each(items, f)
}

/// Parallel map over fixed-size chunks of a slice, preserving chunk order.
///
/// Use when per-item work is too small to amortize queue traffic; `chunk`
/// is the number of items per task.
pub fn par_chunks_map<T, R, F>(workers: usize, items: &[T], chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let chunks: Vec<&[T]> = items.chunks(chunk).collect();
    ThreadPool::new(workers).map(&chunks, |c| f(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn empty_input() {
        let out: Vec<i32> = par_map(4, &[] as &[i32], |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn preserves_order() {
        let xs: Vec<usize> = (0..1000).collect();
        let out = par_map(8, &xs, |&x| x * 2);
        assert_eq!(out, xs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_fallback() {
        let xs = vec![1, 2, 3];
        assert_eq!(par_map(1, &xs, |&x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn more_workers_than_items() {
        let xs = vec![5];
        assert_eq!(par_map(16, &xs, |&x| x * x), vec![25]);
    }

    #[test]
    fn borrows_environment() {
        let offset = 100;
        let xs = vec![1, 2, 3];
        let out = par_map(2, &xs, |&x| x + offset);
        assert_eq!(out, vec![101, 102, 103]);
    }

    #[test]
    #[should_panic(expected = "deliberate test panic")]
    fn panics_propagate() {
        let xs: Vec<u32> = (0..64).collect();
        let _ = par_map(4, &xs, |&x| {
            if x == 13 {
                panic!("deliberate test panic");
            }
            x
        });
    }

    #[test]
    fn for_each_visits_everything() {
        let xs: Vec<u64> = (0..500).collect();
        let sum = AtomicU64::new(0);
        par_for_each(4, &xs, |&x| {
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 500 * 499 / 2);
    }

    #[test]
    fn join_all_ordered() {
        let pool = ThreadPool::new(4);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..10usize)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = pool.join_all(tasks);
        assert_eq!(out, (0..10usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn join_all_empty() {
        let pool = ThreadPool::new(2);
        let out: Vec<u8> = pool.join_all(Vec::<Box<dyn FnOnce() -> u8 + Send>>::new());
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "task panic")]
    fn join_all_propagates_panic() {
        let pool = ThreadPool::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| -> usize { panic!("task panic") }),
            Box::new(|| 3),
        ];
        let _ = pool.join_all(tasks);
    }

    #[test]
    fn chunked_map() {
        let xs: Vec<u32> = (0..10).collect();
        let sums = par_chunks_map(3, &xs, 4, |c| c.iter().sum::<u32>());
        assert_eq!(sums, vec![6, 22, 17]);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        let _ = par_chunks_map(2, &[1, 2, 3], 0, |c| c.len());
    }

    #[test]
    fn pool_worker_counts() {
        assert_eq!(ThreadPool::new(0).workers(), 1);
        assert_eq!(ThreadPool::new(5).workers(), 5);
        assert!(ThreadPool::with_available_parallelism().workers() >= 1);
    }

    #[test]
    fn uneven_work_balances() {
        // Items with wildly different costs still all complete.
        let xs: Vec<u64> = (0..32).collect();
        let out = par_map(4, &xs, |&x| {
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i);
            }
            (x, acc)
        });
        assert_eq!(out.len(), 32);
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }
}
