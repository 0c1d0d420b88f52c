//! One worker pool for every parallel loop over indices: a campaign's
//! runs, a sample's graphs and the rows of its Gram matrix.
//!
//! [`map_indexed`] calls `f(i)` for each `i` in `0..n` on
//! [`workers(n, threads)`](workers) workers that claim indices from one
//! atomic counter, so one slow item never idles the others. Its contract:
//!
//! - indices are claimed in increasing order;
//! - the cancel token, when given, is checked before each claim;
//! - a claimed index always completes;
//! - results come back in index order, and a cancelled call returns
//!   exactly the finished prefix `f(0), …, f(k − 1)`;
//! - one worker runs on the calling thread, and two or more are all
//!   spawned threads.
//!
//! The last rule is about memory. One worker spawns nothing, so a daemon
//! job keeps using its thread's warm allocator arena (a fresh thread's
//! arena cost warm amg2013 store jobs ~12% in page faults). Two or more
//! are all spawned: sharing the work with the caller's long-lived arena
//! raised the peak RSS of repeated 192-run campaigns that kept every run
//! by ~40%.

use crate::CancelToken;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How many workers [`map_indexed`] runs for `n` items: `threads`, but at
/// least one and no more than there are items.
pub fn workers(n: usize, threads: usize) -> usize {
    threads.max(1).min(n.max(1))
}

/// `f(0), …, f(n − 1)` computed on [`workers(n, threads)`](workers)
/// workers, in index order; once `cancel` fires, the finished prefix.
/// A panic in `f` panics the caller once every worker has stopped.
pub fn map_indexed<T: Send>(
    n: usize,
    threads: usize,
    cancel: Option<&CancelToken>,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        while !cancel.is_some_and(CancelToken::is_cancelled) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            done.push((i, f(i)));
        }
        done
    };
    let done: Vec<Vec<(usize, T)>> = match workers(n, threads) {
        1 => vec![work()],
        w => std::thread::scope(|s| {
            let handles: Vec<_> = (0..w).map(|_| s.spawn(work)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pool worker panicked"))
                .collect()
        }),
    };
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, value) in done.into_iter().flatten() {
        slots[i] = Some(value);
    }
    // Claims are in order and each completes, so the finished indices
    // are a prefix.
    slots.into_iter().map_while(|value| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [0, 1, 2, 3, 8] {
            for n in [0, 1, 2, 5, 17] {
                let got = map_indexed(n, threads, None, |i| i * i);
                let want: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(got, want, "threads {threads}, n {n}");
            }
        }
    }

    #[test]
    fn a_token_fired_inside_an_item_returns_a_finished_prefix() {
        let k = 5;
        for threads in [1, 2, 4] {
            let token = CancelToken::new();
            let got = map_indexed(64, threads, Some(&token), |i| {
                if i == k {
                    token.cancel();
                }
                // An item claimed after k waits for the token, so each
                // worker finishes at most one item past k.
                while i > k && !token.is_cancelled() {
                    std::thread::yield_now();
                }
                i
            });
            assert_eq!(got, (0..got.len()).collect::<Vec<_>>(), "threads {threads}");
            if threads == 1 {
                assert_eq!(got.len(), k + 1);
            } else {
                assert!(
                    got.len() > k && got.len() <= k + threads,
                    "threads {threads}: {got:?}"
                );
            }
        }
    }

    #[test]
    fn a_fired_token_claims_nothing() {
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 2, 4] {
            let got = map_indexed(8, threads, Some(&token), |i| -> usize {
                panic!("claimed item {i} after the token fired")
            });
            assert!(got.is_empty());
        }
    }

    #[test]
    fn a_panicking_item_panics_the_caller() {
        for threads in [1, 2, 4] {
            let (tx, rx) = mpsc::channel();
            let caller = std::thread::spawn(move || {
                let outcome = std::panic::catch_unwind(|| {
                    map_indexed(16, threads, None, |i| assert_ne!(i, 3, "item 3 fails"))
                });
                tx.send(outcome.is_err()).expect("the test is waiting");
            });
            let panicked = rx
                .recv_timeout(Duration::from_secs(60))
                .expect("a panicking item must not hang the pool");
            caller.join().expect("the caller caught the panic");
            assert!(panicked, "threads {threads}");
        }
    }
}
