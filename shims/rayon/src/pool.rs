//! A small persistent thread pool with scoped execution.
//!
//! Workers are spawned once (one per logical CPU) and pull boxed jobs
//! from a shared injector queue. [`scope_run`] queues all but the first
//! of a batch of borrowed closures, runs the first on the calling thread
//! and blocks until every queued one finishes, which is what makes the
//! lifetime erasure below sound: no job can outlive the call that
//! borrowed its environment.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    workers: usize,
}

static POOL: OnceLock<Arc<Pool>> = OnceLock::new();

thread_local! {
    /// Set inside pool workers, and on a caller while it runs its own
    /// task of a batch, so nested parallel calls degrade to sequential
    /// execution instead of deadlocking on a saturated pool.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn pool() -> &'static Arc<Pool> {
    POOL.get_or_init(|| {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let pool = Arc::new(Pool {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            workers,
        });
        for i in 0..workers {
            let pool = Arc::clone(&pool);
            std::thread::Builder::new()
                .name(format!("matgpt-pool-{i}"))
                .spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    loop {
                        let job = {
                            let mut queue = pool.queue.lock().unwrap();
                            loop {
                                if let Some(job) = queue.pop_front() {
                                    break job;
                                }
                                queue = pool.available.wait(queue).unwrap();
                            }
                        };
                        job();
                    }
                })
                .expect("spawn pool worker");
        }
        pool
    })
}

/// Number of worker threads in the global pool.
pub fn current_num_threads() -> usize {
    pool().workers
}

/// True when called from inside a pool worker.
pub(crate) fn on_worker_thread() -> bool {
    IN_WORKER.with(|w| w.get())
}

struct Latch {
    remaining: AtomicUsize,
    mutex: Mutex<()>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Run a batch of scoped tasks and wait for all of them: the first on
/// the calling thread, the rest on the pool, so a batch of two wakes one
/// worker and the caller never sleeps while it has work of its own.
///
/// Runs everything inline when called from a worker thread (nested
/// parallelism) or when there is nothing to parallelise over.
pub(crate) fn scope_run(tasks: Vec<Box<dyn FnOnce() + Send + '_>>) {
    if tasks.len() <= 1 || on_worker_thread() || pool().workers <= 1 {
        for task in tasks {
            task();
        }
        return;
    }
    let mut tasks = tasks.into_iter();
    let own = tasks.next().expect("a batch of two or more");
    let queued = tasks.len();
    let latch = Arc::new(Latch {
        remaining: AtomicUsize::new(queued),
        mutex: Mutex::new(()),
        done: Condvar::new(),
        panic: Mutex::new(None),
    });
    {
        let mut queue = pool().queue.lock().unwrap();
        for task in tasks {
            // SAFETY: lifetime erasure to 'static. The borrowed
            // environment of `task` outlives this function call, and this
            // function does not return (or unwind: a panic in the
            // caller's own task is caught below) until the latch records
            // that every queued job has run to completion, so no job can
            // observe its environment after the borrow ends. A job's
            // panic is caught on the worker and the latch is decremented
            // in a drop guard below.
            let task: Box<dyn FnOnce() + Send + 'static> =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(task) };
            let latch = Arc::clone(&latch);
            queue.push_back(Box::new(move || {
                struct Guard(Arc<Latch>);
                impl Drop for Guard {
                    fn drop(&mut self) {
                        if self.0.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                            let _lock = self.0.mutex.lock().unwrap();
                            self.0.done.notify_all();
                        }
                    }
                }
                let _guard = Guard(latch.clone());
                if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)) {
                    latch.panic.lock().unwrap().get_or_insert(payload);
                }
            }));
        }
        if queued == 1 {
            pool().available.notify_one();
        } else {
            pool().available.notify_all();
        }
    }
    // The caller's own task, nested calls inline as on a worker.
    let was_worker = IN_WORKER.with(|w| w.replace(true));
    let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(own));
    IN_WORKER.with(|w| w.set(was_worker));
    if let Err(payload) = own {
        latch.panic.lock().unwrap().get_or_insert(payload);
    }
    let mut lock = latch.mutex.lock().unwrap();
    while latch.remaining.load(Ordering::Acquire) > 0 {
        lock = latch.done.wait(lock).unwrap();
    }
    drop(lock);
    // Re-raise the first panic from any task in the caller, as rayon does.
    let payload = latch.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_runs_all_tasks_and_blocks_until_done() {
        let mut results = vec![0u64; 64];
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = results
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || *slot = (i as u64) * 3);
                task
            })
            .collect();
        scope_run(tasks);
        for (i, v) in results.iter().enumerate() {
            assert_eq!(*v, (i as u64) * 3);
        }
    }

    fn batch<'a, T: Send>(
        slots: &'a mut [T],
        f: impl Fn(usize, &mut T) + Send + Sync + Copy + 'a,
    ) -> Vec<Box<dyn FnOnce() + Send + 'a>> {
        slots
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                let task: Box<dyn FnOnce() + Send + 'a> = Box::new(move || f(i, slot));
                task
            })
            .collect()
    }

    #[test]
    fn exactly_one_task_of_a_batch_runs_on_the_caller() {
        let caller = std::thread::current().id();
        for n in [2, 3, 8] {
            let mut ran_on = vec![None; n];
            scope_run(batch(&mut ran_on, |_, slot| {
                *slot = Some(std::thread::current().id())
            }));
            let on_caller = ran_on.iter().filter(|&&t| t == Some(caller)).count();
            let expected = if current_num_threads() > 1 { 1 } else { n };
            assert_eq!(on_caller, expected, "batch of {n}: {ran_on:?}");
            assert_eq!(ran_on[0], Some(caller), "the first task is the caller's");
            assert!(!on_worker_thread(), "the caller is no worker afterwards");
        }
    }

    #[test]
    fn a_panic_in_the_callers_task_waits_for_the_queued_tasks() {
        if current_num_threads() <= 1 {
            // one worker: the batch runs inline and the panic ends it
            return;
        }
        let mut done = vec![false; 4];
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scope_run(batch(&mut done, |i, slot| {
                if i == 0 {
                    panic!("the caller's own task");
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                *slot = true;
            }))
        }));
        let payload = outcome.expect_err("the panic is re-raised");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"the caller's own task")
        );
        assert_eq!(
            done,
            [false, true, true, true],
            "every queued task finished first"
        );
        assert!(!on_worker_thread());
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let mut outer = [0u64; 8];
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = outer
            .iter_mut()
            .map(|slot| {
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let mut inner = [0u64; 8];
                    let inner_tasks: Vec<Box<dyn FnOnce() + Send + '_>> = inner
                        .iter_mut()
                        .map(|s| {
                            let t: Box<dyn FnOnce() + Send + '_> = Box::new(move || *s = 1);
                            t
                        })
                        .collect();
                    scope_run(inner_tasks);
                    *slot = inner.iter().sum();
                });
                task
            })
            .collect();
        scope_run(tasks);
        assert!(outer.iter().all(|&v| v == 8));
    }
}
