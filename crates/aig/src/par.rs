//! Minimal data-parallel helpers backed by `std::thread::scope`.
//!
//! The workspace's embarrassingly parallel outer loops (variant
//! labeling, SA sweeps, multi-seed chains, design-suite construction)
//! and the simulator's word-parallel propagation all funnel through
//! this module, so parallelism policy lives in exactly one place:
//!
//! * the crate feature `parallel` (default on) compiles the threaded
//!   paths in; without it every helper runs serially;
//! * the environment variable `AIG_THREADS` overrides the worker
//!   count at runtime (`AIG_THREADS=1` forces serial execution for
//!   debugging or reproducing single-threaded timings);
//! * nested calls never oversubscribe: a `par_*` call made from
//!   inside a worker runs serially.
//!
//! Every helper is **deterministic**: results are returned in input
//! order and each item is computed by a pure call of the supplied
//! closure, so the output is identical for any worker count.

use std::sync::atomic::{AtomicUsize, Ordering};

#[cfg(feature = "parallel")]
std::thread_local! {
    static IN_PARALLEL_REGION: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The number of worker threads `par_*` helpers may use.
///
/// Resolution order: `1` when the `parallel` feature is off or when
/// called from inside another `par_*` worker; otherwise `AIG_THREADS`
/// when set (values `< 1` clamp to `1`); otherwise the machine's
/// available parallelism.
pub fn max_threads() -> usize {
    #[cfg(not(feature = "parallel"))]
    {
        1
    }
    #[cfg(feature = "parallel")]
    {
        if IN_PARALLEL_REGION.with(|f| f.get()) {
            return 1;
        }
        match std::env::var("AIG_THREADS") {
            Ok(s) => match s.trim().parse::<usize>() {
                Ok(n) => n.max(1),
                Err(_) => default_threads(),
            },
            Err(_) => default_threads(),
        }
    }
}

#[cfg(feature = "parallel")]
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Maps `f` over `items` (with the item index), in parallel, returning
/// results in input order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(items, || (), move |(), i, t| f(i, t))
}

/// Like [`par_map`], but each worker first builds a reusable state via
/// `init` (e.g. one `Mapper` per worker) that `f` receives mutably —
/// the replacement for rayon's `map_init`.
pub fn par_map_with<T, S, R, FI, F>(items: &[T], init: FI, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    FI: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let threads = max_threads().min(items.len());
    if threads <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }
    run_parallel(items, threads, &init, &f)
}

#[cfg(not(feature = "parallel"))]
fn run_parallel<T, S, R, FI, F>(items: &[T], _threads: usize, init: &FI, f: &F) -> Vec<R>
where
    FI: Fn() -> S,
    F: Fn(&mut S, usize, &T) -> R,
{
    let mut state = init();
    items
        .iter()
        .enumerate()
        .map(|(i, t)| f(&mut state, i, t))
        .collect()
}

#[cfg(feature = "parallel")]
fn run_parallel<T, S, R, FI, F>(items: &[T], threads: usize, init: &FI, f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    FI: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let next = &next;
            handles.push(scope.spawn(move || {
                IN_PARALLEL_REGION.with(|flag| flag.set(true));
                let mut state = init();
                // Work-stealing by atomic index: balances uneven item
                // costs (e.g. mapping differently sized AIGs).
                let mut out: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    out.push((i, f(&mut state, i, &items[i])));
                }
                out
            }));
        }
        for h in handles {
            for (i, r) in h.join().expect("par_map worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index claimed by exactly one worker"))
        .collect()
}

/// Splits `0..n` into at most [`max_threads`] contiguous ranges of at
/// least `min_chunk` elements and runs `f` on each range in parallel.
///
/// The ranges partition `0..n` exactly; `f` must only touch state
/// belonging to its range (the caller guarantees disjointness).
pub fn par_ranges<F>(n: usize, min_chunk: usize, f: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    let min_chunk = min_chunk.max(1);
    let threads = max_threads().min(n.div_ceil(min_chunk)).max(1);
    if threads <= 1 {
        if n > 0 {
            f(0..n);
        }
        return;
    }
    #[cfg(feature = "parallel")]
    {
        let chunk = n.div_ceil(threads);
        std::thread::scope(|scope| {
            let mut start = 0;
            while start < n {
                let end = (start + chunk).min(n);
                let f = &f;
                scope.spawn(move || {
                    IN_PARALLEL_REGION.with(|flag| flag.set(true));
                    f(start..end);
                });
                start = end;
            }
        });
    }
    #[cfg(not(feature = "parallel"))]
    f(0..n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_with_builds_worker_state() {
        let items: Vec<u64> = (0..64).collect();
        let out = par_map_with(
            &items,
            || 10u64,
            |state, _i, &x| {
                *state += 1; // worker-local; must not affect results
                x + 1
            },
        );
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn par_ranges_partitions_exactly() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let n = 1237;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        par_ranges(n, 8, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        par_ranges(0, 8, |_r| panic!("no range for n = 0"));
    }

    #[test]
    fn nested_calls_run_serially() {
        let outer: Vec<usize> = (0..4).collect();
        let out = par_map(&outer, |_, &x| {
            // Inside a worker max_threads() must report 1, so this
            // nested call cannot spawn further threads.
            let inner: Vec<usize> = (0..8).collect();
            let s: usize = par_map(&inner, |_, &y| y).iter().sum();
            (x, s, max_threads())
        });
        for &(_, s, mt) in &out {
            assert_eq!(s, 28);
            if cfg!(feature = "parallel") && max_threads() > 1 {
                assert_eq!(mt, 1, "nested region must be serial");
            }
        }
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let items: Vec<u64> = (0..500).collect();
        let f = |_: usize, &x: &u64| x.wrapping_mul(0x9E37_79B9).rotate_left(13);
        let a = par_map(&items, f);
        let b: Vec<u64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        assert_eq!(a, b);
    }
}
