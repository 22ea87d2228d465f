//! A minimal worker pool for embarrassingly-parallel simulation work.
//!
//! The engine uses this to execute independent blocks concurrently and the
//! benchmark harness uses it to fan figure sweeps out over parameter
//! points.  The pool is deliberately tiny: scoped threads, a shared work
//! queue, results returned in input order so that callers stay
//! deterministic regardless of scheduling.
//!
//! ## Example
//!
//! ```
//! use dstress_net::pool::{default_threads, parallel_map};
//!
//! let squares = parallel_map((0u64..8).collect(), 4, |_idx, x| x * x);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! assert!(default_threads() >= 1);
//! ```

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Mutex;

/// Splits `0..total` into consecutive index windows of at most `window`
/// elements — the block-scheduling primitive of the streaming engine:
/// each window is the set of blocks materialised in flight at once, so
/// `window` directly bounds peak working memory while the global index
/// order (and therefore every derived task seed) stays identical to a
/// single-window run.
///
/// A `window` of zero is treated as one; `usize::MAX` yields a single
/// window (the fully materialised schedule).
///
/// ## Example
///
/// ```
/// use dstress_net::pool::windowed;
///
/// let spans: Vec<_> = windowed(7, 3).collect();
/// assert_eq!(spans, vec![0..3, 3..6, 6..7]);
/// assert_eq!(windowed(7, usize::MAX).count(), 1);
/// assert_eq!(windowed(0, 4).count(), 0);
/// ```
pub fn windowed(total: usize, window: usize) -> impl Iterator<Item = Range<usize>> {
    let window = window.max(1);
    let mut start = 0;
    std::iter::from_fn(move || {
        if start >= total {
            return None;
        }
        let end = start.saturating_add(window).min(total);
        let span = start..end;
        start = end;
        Some(span)
    })
}

/// One worker per available hardware thread (at least one).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item on a pool of `threads` workers and returns
/// the results in input order.
///
/// `f` receives `(index, item)` so callers can derive per-task seeds from
/// the input position.  With `threads <= 1` (or a single item) everything
/// runs inline on the calling thread — the deterministic "sequential"
/// mode is literally the same code path with a pool of one.  Otherwise
/// the calling thread is one of the workers and `threads - 1` helpers are
/// spawned beside it, so a helper the host is slow to schedule costs the
/// batch nothing but the items it would have taken.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.clamp(1, n.max(1));
    if workers <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    // Every worker keeps what it computed and hands it back when the
    // queue is empty.
    let drain = || {
        let mut done = Vec::new();
        loop {
            let job = queue.lock().expect("pool queue poisoned").pop_front();
            let Some((index, item)) = job else { break done };
            done.push((index, f(index, item)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
        let mut done = drain();
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => done.extend(theirs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = parallel_map((0..100u64).collect(), 8, |i, x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..100u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn inline_when_single_threaded() {
        let out = parallel_map(vec![1, 2, 3], 1, |_i, x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn the_calling_thread_is_a_worker() {
        // With a pool of two, at most one other thread ever runs an item.
        let caller = std::thread::current().id();
        let ids = parallel_map(vec![(); 64], 2, |_i, ()| std::thread::current().id());
        let others: std::collections::BTreeSet<_> = ids
            .into_iter()
            .filter(|&id| id != caller)
            .map(|id| format!("{id:?}"))
            .collect();
        assert!(others.len() <= 1, "helpers seen: {others:?}");
    }

    #[test]
    fn a_panicking_item_panics_the_caller_with_its_message() {
        let outcome = std::panic::catch_unwind(|| {
            parallel_map((0..32u32).collect(), 4, |_i, x| {
                assert!(x != 17, "item seventeen");
                x
            })
        });
        let payload = outcome.expect_err("the panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(message.contains("item seventeen"), "got {message:?}");
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = parallel_map(Vec::<u32>::new(), 4, |_i, x| x);
        assert!(empty.is_empty());
        assert_eq!(parallel_map(vec![7], 4, |_i, x| x), vec![7]);
    }

    #[test]
    fn windows_partition_the_range_in_order() {
        assert_eq!(windowed(10, 4).collect::<Vec<_>>(), vec![0..4, 4..8, 8..10]);
        assert_eq!(windowed(4, 4).collect::<Vec<_>>(), vec![0..4]);
        assert_eq!(windowed(3, 0).count(), 3, "window 0 behaves as 1");
        assert_eq!(windowed(5, usize::MAX).collect::<Vec<_>>(), vec![0..5]);
        assert_eq!(windowed(0, 1).count(), 0);
        // Windows tile the range exactly once, in order.
        let mut seen = Vec::new();
        for span in windowed(23, 5) {
            seen.extend(span);
        }
        assert_eq!(seen, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential_results() {
        let items: Vec<u64> = (0..64).collect();
        let seq = parallel_map(items.clone(), 1, |i, x| x.wrapping_mul(i as u64 + 1));
        let par = parallel_map(items, 4, |i, x| x.wrapping_mul(i as u64 + 1));
        assert_eq!(seq, par);
    }
}
