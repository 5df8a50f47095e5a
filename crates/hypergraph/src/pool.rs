//! The workspace's one deterministic worker pool.
//!
//! Algorithm I has two parallel loops: the dualization of `H` into `G`
//! (chunks of the pair stream, [`Dualizer`](crate::Dualizer)) and the
//! multi-start over random longest paths (`fhp_core::runner`). Both hand
//! an index space to [`run_indexed`]: scoped workers claim the next
//! unclaimed index from an atomic counter (cheap load balancing — chunks
//! and starts vary in cost), outputs are stored by index, and the caller
//! gets them back in index order. Claim order never reaches the result,
//! so a caller whose work is a pure function of its index gets the same
//! output for every worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `work(i, state)` for every `i in 0..count` across `workers`
/// scoped threads and returns the outputs **in index order**, plus every
/// per-worker state the run created.
///
/// Each worker creates its state with `make_state` on its first claimed
/// index and hands it by `&mut` to every index it runs afterwards;
/// workers that claim nothing create none, so `count − states.len()` is
/// the number of times a state was reused rather than built. `work` must
/// reset whatever state it reads at entry for its output to be a pure
/// function of the index. With `workers` clamped to `1..=count` equal to
/// 1, everything runs inline on the caller's thread with no spawn.
///
/// A panic in `work` propagates to the caller once the scope joins;
/// callers that want containment catch it inside `work`.
///
/// # Examples
///
/// ```
/// use fhp_hypergraph::pool::run_indexed;
///
/// let (squares, states) = run_indexed(8, 2, Vec::new, |i, seen: &mut Vec<usize>| {
///     seen.push(i);
///     i * i
/// });
/// assert_eq!(squares, [0, 1, 4, 9, 16, 25, 36, 49]);
/// assert_eq!(states.iter().map(Vec::len).sum::<usize>(), 8);
/// ```
pub fn run_indexed<T, S, M, F>(
    count: usize,
    workers: usize,
    make_state: M,
    work: F,
) -> (Vec<T>, Vec<S>)
where
    T: Send,
    S: Send,
    M: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> T + Sync,
{
    let workers = workers.clamp(1, count.max(1));
    if workers == 1 {
        let mut state = None;
        let outputs = (0..count)
            .map(|i| work(i, state.get_or_insert_with(&make_state)))
            .collect();
        return (outputs, state.into_iter().collect());
    }

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..count).map(|_| None).collect());
    let states: Mutex<Vec<S>> = Mutex::new(Vec::with_capacity(workers));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state: Option<S> = None;
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed); // fhp-audit: allow(atomic-ordering) — claim-by-counter: fetch_add is the only use; claim order never reaches the merged output
                    if index >= count {
                        break;
                    }
                    let out = work(index, state.get_or_insert_with(&make_state));
                    // a poisoned lock means another worker died mid-store;
                    // outputs already stored are still good — keep going
                    let mut slots = slots
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    if let Some(slot) = slots.get_mut(index) {
                        *slot = Some(out);
                    }
                }
                if let Some(state) = state {
                    states
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(state);
                }
            });
        }
    });
    let outputs = slots
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .into_iter()
        // fhp-audit: allow(panic-site) — the claim loop covers 0..count exactly once; a hole is a pool bug worth a loud stop
        .map(|slot| slot.expect("every index was claimed exactly once"))
        .collect();
    let states = states
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    (outputs, states)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_arrive_in_index_order_for_any_worker_count() {
        for workers in [1, 2, 3, 8, 64] {
            let (out, states) = run_indexed(23, workers, || (), |i, _| 100 - i);
            assert_eq!(out, (0..23).map(|i| 100 - i).collect::<Vec<_>>());
            assert!(!states.is_empty() && states.len() <= workers.min(23));
        }
    }

    #[test]
    fn each_index_runs_once_on_one_lazily_built_state() {
        let (_, states) = run_indexed(16, 4, Vec::new, |i, seen: &mut Vec<usize>| seen.push(i));
        let mut all: Vec<usize> = states.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..16).collect::<Vec<_>>());
        assert!(states.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn zero_count_builds_no_state() {
        for workers in [1, 8] {
            let (out, states) = run_indexed(0, workers, || (), |i, _| i);
            assert!(out.is_empty() && states.is_empty());
        }
    }
}
