//! The scoped worker pool: one shared task cursor.
//!
//! Design constraints, in order:
//!
//! 1. **Std-only, zero `unsafe`.** Workers take task indices from one
//!    [`AtomicUsize`] with `fetch_add`; there is no queue and no lock.
//! 2. **Scoped.** [`std::thread::scope`] lets workers borrow the task
//!    closure, the shared plan, and the input corpus straight from the
//!    caller's stack frame; no `Arc`-wrapping, no `'static` bounds, and
//!    every worker is joined before the call returns.
//! 3. **Deterministic results.** Workers tag each result with its task
//!    index and the results are put back into input order, so the output
//!    is independent of scheduling.
//!
//! A batch is a fixed set of tasks that never spawn tasks (compilation is
//! done before any document is examined, and evaluation is independent per
//! document), so a worker that takes an index past the end simply exits.
//! The cursor balances by itself: a worker stalled on one large document
//! takes no further index, and the others drain the rest.

use std::sync::atomic::{AtomicUsize, Ordering};

use hedgex_obs as obs;

/// Run `num_tasks` tasks on up to `jobs` workers.
///
/// `init(worker_id)` builds each worker's private state once (scratch
/// buffers); `work(&mut state, task_index)` runs one task. Results come
/// back indexed by task, in input order, regardless of which worker ran
/// what when.
///
/// `jobs` is clamped to `1..=num_tasks`; with one job (or one task) the
/// worker body runs inline on the calling thread — no thread is spawned,
/// so a single-worker run *is* the sequential loop, not a simulation of
/// it. A panicking task panics out of this call with its own payload,
/// after the other workers have run out of tasks.
pub fn run_scoped<S, T, I, W>(jobs: usize, num_tasks: usize, init: I, work: W) -> Vec<T>
where
    T: Send,
    I: Fn(usize) -> S + Sync,
    W: Fn(&mut S, usize) -> T + Sync,
{
    let jobs = jobs.clamp(1, num_tasks.max(1));
    let cursor = AtomicUsize::new(0);
    let worker = |w: usize| {
        // One span for the worker's whole life; every task span (and all a
        // task instruments) nests under it: one trace lane per worker.
        let _worker = obs::span("par.worker");
        let mut state = init(w);
        let mut done: Vec<(usize, T)> = Vec::new();
        loop {
            // Relaxed: an index publishes no data; results come back through the join.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= num_tasks {
                return done;
            }
            let _task = obs::span("par.task");
            done.push((i, work(&mut state, i)));
        }
    };

    let mut results: Vec<(usize, T)> = if jobs == 1 {
        worker(0)
    } else {
        let worker = &worker;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..jobs).map(|w| s.spawn(move || worker(w))).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    };
    // Every index was taken exactly once, so sorting restores input order.
    results.sort_unstable_by_key(|&(i, _)| i);
    debug_assert!(results.iter().enumerate().all(|(k, &(i, _))| k == i));

    // One registry flush per pool run: the task loop itself generates no
    // counter traffic.
    obs::counter_inc("par.pool.runs");
    obs::counter_add("par.pool.tasks", num_tasks as u64);
    results.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    /// Tasks run by each worker, tallied from `(worker, task)` results
    /// whose worker id came from the worker's `init` state.
    fn tasks_per_worker(out: &[(usize, usize)]) -> Vec<u64> {
        let mut tally = Vec::new();
        for &(w, _) in out {
            if tally.len() <= w {
                tally.resize(w + 1, 0);
            }
            tally[w] += 1;
        }
        tally
    }

    #[test]
    fn results_come_back_in_task_order() {
        for jobs in [1, 2, 3, 8] {
            let out = run_scoped(jobs, 100, |_| (), |(), i| i * i);
            assert_eq!(
                out,
                (0..100).map(|i| i * i).collect::<Vec<_>>(),
                "{jobs} jobs"
            );
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let hits = AtomicU64::new(0);
        let out = run_scoped(
            4,
            1000,
            |w| w,
            |&mut w, i| {
                hits.fetch_add(1, Ordering::Relaxed);
                (w, i)
            },
        );
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
        let order: Vec<usize> = out.iter().map(|&(_, i)| i).collect();
        assert_eq!(order, (0..1000).collect::<Vec<_>>());
        let tally = tasks_per_worker(&out);
        assert_eq!(tally.iter().sum::<u64>(), 1000);
        assert!(tally.len() <= 4, "worker ids are 0..jobs");
    }

    #[test]
    fn jobs_are_clamped_to_task_count() {
        let inits = AtomicUsize::new(0);
        let init = |w| {
            inits.fetch_add(1, Ordering::Relaxed);
            w
        };
        let out = run_scoped(16, 3, init, |&mut w, i| (w, i));
        assert_eq!(out.len(), 3);
        assert!(
            inits.load(Ordering::Relaxed) <= 3,
            "never more workers than tasks"
        );
        assert!(tasks_per_worker(&out).len() <= 3);
        inits.store(0, Ordering::Relaxed);
        let out = run_scoped(0, 5, init, |&mut w, i| (w, i));
        assert_eq!(out, (0..5).map(|i| (0, i)).collect::<Vec<_>>());
        assert_eq!(
            inits.load(Ordering::Relaxed),
            1,
            "jobs=0 degrades to inline"
        );
        assert_eq!(tasks_per_worker(&out), vec![5]);
    }

    #[test]
    fn empty_task_set_is_fine() {
        let out: Vec<u32> = run_scoped(4, 0, |_| (), |(), _| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn init_runs_once_per_worker_and_state_is_private() {
        // Each worker counts its own tasks in its private state; the sum
        // over workers must cover everything with no double counting.
        let inits = AtomicUsize::new(0);
        let out = run_scoped(
            3,
            200,
            |w| {
                inits.fetch_add(1, Ordering::Relaxed);
                (w, 0u64)
            },
            |(w, count), i| {
                *count += 1;
                (*w, *count, i)
            },
        );
        assert_eq!(out.len(), 200);
        assert_eq!(inits.load(Ordering::Relaxed), 3, "one init per worker");
        let pairs: Vec<(usize, usize)> = out.iter().map(|&(w, _, i)| (w, i)).collect();
        let tally = tasks_per_worker(&pairs);
        let per_worker_max: Vec<u64> = (0..tally.len())
            .map(|w| {
                out.iter()
                    .filter(|(ww, _, _)| *ww == w)
                    .map(|(_, c, _)| *c)
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        assert_eq!(per_worker_max.iter().sum::<u64>(), 200);
        assert_eq!(tally, per_worker_max);
    }

    #[test]
    fn a_stalled_worker_leaves_the_rest_to_the_other() {
        // Task 0 sleeps 50 ms (in naps, until the rest are done, so a
        // slow thread start cannot flake the test); meanwhile the other
        // worker must take and run all 31 remaining tasks.
        let finished = AtomicUsize::new(0);
        let out = run_scoped(
            2,
            32,
            |w| w,
            |&mut w, i| {
                if i == 0 {
                    for _ in 0..100 {
                        std::thread::sleep(Duration::from_millis(50));
                        if finished.load(Ordering::Relaxed) == 31 {
                            break;
                        }
                    }
                } else {
                    finished.fetch_add(1, Ordering::Relaxed);
                }
                (w, i)
            },
        );
        assert_eq!(
            out.iter().map(|&(_, i)| i).collect::<Vec<_>>(),
            (0..32).collect::<Vec<_>>()
        );
        let stalled = out[0].0;
        let mut tally = tasks_per_worker(&out);
        tally.resize(2, 0);
        assert_eq!(tally[stalled], 1, "the stalled worker ran only task 0");
        assert_eq!(tally[1 - stalled], 31, "the other worker ran the rest");
    }

    #[test]
    fn a_panicking_task_propagates() {
        for jobs in [1, 2] {
            let got = catch_unwind(AssertUnwindSafe(|| {
                run_scoped(
                    jobs,
                    32,
                    |_| (),
                    |(), i| {
                        assert_ne!(i, 7, "planted panic");
                        i
                    },
                )
            }));
            let payload = got.expect_err("a panicking task must not return a Vec");
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(
                msg.contains("planted panic"),
                "{jobs} jobs: payload {msg:?}"
            );
        }
    }
}
