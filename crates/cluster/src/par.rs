//! The ordered worker pool behind every fan-out in the crate: the rack lanes
//! of a round-robin run and the cells of a sweep.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Computes `f(0), …, f(n - 1)` on up to `workers` scoped threads and returns
/// the results in index order, whichever worker computed each. Workers claim
/// the next unclaimed index from a shared counter, so uneven items balance
/// themselves, and each result lands in its own slot. With one worker (or at
/// most one item) every item runs inline on the caller's thread.
pub(crate) fn map_ordered<T: Send + Sync>(
    n: usize,
    workers: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let filled = slots[i].set(f(i)).is_ok();
                debug_assert!(filled, "item {i} claimed twice");
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("the pool computed every item"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Items whose cost falls with their index, so later items finish
    /// before earlier ones on a multi-worker pool.
    fn uneven(i: usize) -> usize {
        let spins = (16 - i.min(16)) * 20_000;
        let mut acc = i;
        for k in 0..spins {
            acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(k));
        }
        std::hint::black_box(acc);
        i * i
    }

    #[test]
    fn results_come_back_in_index_order_for_every_worker_count() {
        let expected: Vec<usize> = (0..16).map(|i| i * i).collect();
        for workers in [1, 2, 8] {
            assert_eq!(map_ordered(16, workers, uneven), expected, "{workers}");
        }
    }

    #[test]
    fn an_empty_range_yields_nothing() {
        for workers in [1, 2, 8] {
            assert!(map_ordered(0, workers, |i| i).is_empty());
        }
    }

    #[test]
    fn more_workers_than_items_still_computes_each_item_once() {
        let calls = AtomicUsize::new(0);
        let out = map_ordered(3, 8, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i + 10
        });
        assert_eq!(out, vec![10, 11, 12]);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }
}
