//! A tiny scoped work-stealing pool for fan-out over borrowed data.
//!
//! The shard fan-out inside `HaServe` has this shape: `n` independent
//! tasks over data the caller only *borrows*, whose results must come
//! back in task order so merges stay byte-identical to the sequential
//! loop.
//! [`fan_out`] is that shape, once: scoped threads (no `'static` bound,
//! so parking-lot read guards and views can be captured by reference)
//! racing a shared atomic cursor (natural work stealing — a worker that
//! finishes a cheap task immediately claims the next, so one slow task
//! never serializes the rest), results reassembled by task index.
//!
//! With `workers <= 1` (or a single task) the pool degenerates to a plain
//! inline loop with zero thread or channel overhead, which is what makes
//! it safe to leave enabled on single-core hosts.
//!
//! ```
//! use ha_bitcode::pool::fan_out;
//!
//! let data = vec![3u64, 1, 4, 1, 5];
//! let doubled = fan_out(4, data.len(), |i| data[i] * 2);
//! assert_eq!(doubled, vec![6, 2, 8, 2, 10]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Runs `f(0..n)` across up to `workers` scoped threads and returns the
/// results **in task order**, exactly as the sequential
/// `(0..n).map(f).collect()` would.
///
/// Tasks are claimed from a shared atomic cursor, so scheduling is
/// work-stealing but nondeterministic; determinism of the *output* comes
/// from reassembly by index. A panic in any task propagates to the
/// caller when the thread scope joins (no result is ever silently
/// dropped).
pub fn fan_out<R, F>(workers: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // The receiver outlives the scope; a send can only fail
                // if the parent already panicked, in which case this
                // worker just winds down.
                if tx.send((i, f(i))).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);
    let mut parts: Vec<(usize, R)> = rx.into_iter().collect();
    debug_assert_eq!(parts.len(), n);
    parts.sort_unstable_by_key(|&(i, _)| i);
    parts.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn matches_sequential_map_at_any_worker_count() {
        let data: Vec<u64> = (0..257).map(|i| i * 31 + 7).collect();
        let expect: Vec<u64> = data.iter().map(|&v| v ^ 0xdead).collect();
        for workers in [0, 1, 2, 3, 8, 64] {
            let got = fan_out(workers, data.len(), |i| data[i] ^ 0xdead);
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn zero_tasks_and_one_task() {
        assert_eq!(fan_out(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(fan_out(8, 1, |i| i + 41), vec![41]);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let hits = AtomicUsize::new(0);
        let n = 1000;
        let out = fan_out(7, n, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), n);
        assert_eq!(out, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn borrows_caller_state_without_static_bound() {
        // The whole point of scoped threads: capture a borrowed slice
        // and a non-'static closure environment.
        let local = vec![vec![1u32, 2], vec![3], vec![]];
        let lens = fan_out(4, local.len(), |i| local[i].len());
        assert_eq!(lens, vec![2, 1, 0]);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            fan_out(4, 16, |i| {
                if i == 9 {
                    panic!("task 9 failed");
                }
                i
            })
        });
        assert!(result.is_err(), "a task panic must reach the caller");
    }
}
