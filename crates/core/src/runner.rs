//! The deterministic parallel start engine behind [`Algorithm1`]'s
//! multi-start loop.
//!
//! [`Algorithm1`]: crate::Algorithm1
//!
//! The paper runs Algorithm I over 50 random longest BFS paths and keeps
//! the best cut. Those starts are independent — the intersection graph is
//! built once and only read — which makes the loop the natural place to
//! put every core the machine has. The engine here fans a `starts`-sized
//! index space over a scoped worker pool and guarantees the final answer
//! is **bit-identical for every worker count**, by construction:
//!
//! 1. **Counter-derived RNG streams.** Start `i` draws from its own
//!    [`SplitMix64`] seeded with `seed ⊕ i`, so what a start explores
//!    depends only on `(seed, i)` — never on which worker ran it, or on
//!    how many other starts ran before it. (The previous implementation
//!    threaded a single sequential RNG through the loop, which made start
//!    `i`'s draws depend on all earlier starts and would have ordered the
//!    whole loop.)
//! 2. **Dynamic claiming, ordered reduction.** Workers claim the next
//!    unclaimed start index from an atomic counter (cheap load balancing
//!    — starts vary in cost), record results by index, and the reduction
//!    scans indices `0..starts` with a strict lexicographic rule, so the
//!    winner is independent of completion order.
//! 3. **Panic containment.** Each start runs under
//!    [`std::panic::catch_unwind`]; a poisoned start becomes a recorded
//!    error in its [`StartRecord`] instead of tearing down the run (or
//!    the process — a panic crossing a [`std::thread::scope`] join would
//!    otherwise propagate).
//!
//! The engine has one entry point, [`run_starts_arena`]. It is generic
//! over the per-start work, so the containment and determinism machinery
//! can be tested in isolation from the partitioner; each worker reuses
//! one scratch arena across its starts, and per-start tracing scopes are
//! built only when the collector is enabled.
//!
//! The claiming and index-ordered collection (point 2) are the
//! workspace's one worker pool, [`fhp_hypergraph::pool::run_indexed`],
//! which the dualization kernel's chunk loop shares; this module adds the
//! per-start RNG streams, panic containment and tracing scopes.

use std::panic::{catch_unwind, AssertUnwindSafe};
// fhp-audit: allow(wallclock-in-fingerprint) — wall time is diagnostic only (StartRecord.wall), never part of fingerprints or canonical traces
use std::time::{Duration, Instant};

use fhp_hypergraph::pool::run_indexed;
use fhp_obs::{names, order, Collector, Scope, ScopeEvents};
use rand::RngCore;

/// SplitMix64 (Steele, Lea & Flood 2014): the engine's per-start
/// generator. One 64-bit add plus a three-stage finalizer per draw; any
/// two distinct seeds give independent-looking streams, which is exactly
/// what counter-derived seeding needs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The stream for start `index` of a run seeded with `seed`.
    pub fn for_start(seed: u64, index: usize) -> Self {
        Self::new(seed ^ index as u64)
    }
}

impl RngCore for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What one start produced: its index, its wall-clock cost on whichever
/// worker ran it, its value — or the panic message if it was contained —
/// and everything the start recorded into its tracing scope.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StartRecord<T> {
    /// The start index in `0..starts`.
    pub index: usize,
    /// Wall-clock time this start took.
    pub wall: Duration,
    /// The start's value, or the contained panic's message.
    pub outcome: Result<T, String>,
    /// The start's finished tracing scope (a `runner.start` root span
    /// plus whatever the work recorded). The caller decides whether to
    /// read it, hand it to a [`Collector`], or drop it.
    pub events: ScopeEvents,
}

/// Runs `work(i, arena, scope)` for every `i in 0..starts` across
/// `workers` scoped threads and returns the records **in index order**,
/// regardless of which worker finished what when.
///
/// `work` must be a pure function of its index (up to timing); that is
/// what makes the caller's reduction bit-identical for every `workers`
/// value, including 1 (which runs inline on the caller's thread). A
/// panicking call is contained and recorded, and the remaining starts
/// still run.
///
/// Every worker owns one reusable arena `A`, created lazily by
/// `make_arena` on the worker's first claimed start and handed by `&mut`
/// to every start it runs afterwards, so index-pure per-start work can
/// execute with **zero heap allocation after warm-up**. Callers with no
/// scratch state pass `|| ()`.
///
/// Tracing is opt-in per run: a [`Scope`] keyed by `order::start(index)`
/// is created (and its `runner.start` root span recorded) only when
/// `collector` [is enabled](Collector::is_enabled) — recording into a
/// scope buffer allocates, which would defeat the arena. With a disabled
/// collector the work closure sees `None` and the records carry empty
/// [`ScopeEvents`]. Scope timestamps share `collector`'s epoch, but
/// nothing is adopted into it here — the caller owns that decision
/// (typically after reading the buffer for its phase facade). Per-start
/// scopes (rather than per-*worker* scopes) are what keep the merged
/// trace identical across worker counts: the event sequence is a pure
/// function of `(starts, work)`, and only the volatile `thread` field
/// betrays which worker ran what.
///
/// Returns the records in index order plus every arena the run actually
/// created (workers that claim no start create none). The difference
/// `starts − arenas.len()` is the number of times an arena was *reused*
/// instead of rebuilt — [`RunStats::arena_reuse_hits`] upstream. That
/// number depends on the worker count, which is why it is reported as a
/// volatile run stat and never recorded into a scope.
///
/// The determinism contract tightens accordingly: `work` must be a pure
/// function of its index *given an arena in any prior state*, i.e. it
/// must reset whatever arena state it reads at entry (every scratch type
/// in this workspace does). A panicking start's arena is handed to its
/// worker's next start as-is, which the reset-at-entry rule makes safe.
///
/// [`RunStats::arena_reuse_hits`]: crate::RunStats
///
/// # Examples
///
/// ```
/// use fhp_core::runner::run_starts_arena;
/// use fhp_obs::Collector;
///
/// let (records, arenas) = run_starts_arena(
///     8,
///     2,
///     &Collector::disabled(),
///     Vec::new,
///     |i, scratch: &mut Vec<usize>, _scope| {
///         scratch.clear(); // reset-at-entry: correctness can't depend on reuse
///         scratch.extend(0..i);
///         scratch.len()
///     },
/// );
/// assert_eq!(records[5].index, 5);
/// assert_eq!(records[5].outcome, Ok(5));
/// assert!(!arenas.is_empty() && arenas.len() <= 2);
/// ```
pub fn run_starts_arena<T, A, M, F>(
    starts: usize,
    workers: usize,
    collector: &Collector,
    make_arena: M,
    work: F,
) -> (Vec<StartRecord<T>>, Vec<A>)
where
    T: Send,
    A: Send,
    M: Fn() -> A + Sync,
    F: Fn(usize, &mut A, Option<&Scope>) -> T + Sync,
{
    let traced = collector.is_enabled();
    let run_one = |index: usize, arena: &mut A| -> StartRecord<T> {
        let scope = traced.then(|| collector.scope(order::start(index), Some(index as u32))); // fhp-audit: allow(as-cast-truncation) — start index bounded by the start count, well below u32::MAX
                                                                                              // fhp-audit: allow(wallclock-in-fingerprint) — times the volatile wall field only
        let started = Instant::now();
        let outcome = {
            let _root = scope.as_ref().map(|s| s.span(names::RUNNER_START));
            // A panic unwinds the work's open span guards before being
            // caught, so the scope's stack is consistent either way.
            catch_unwind(AssertUnwindSafe(|| work(index, arena, scope.as_ref())))
                .map_err(panic_message)
        };
        StartRecord {
            index,
            wall: started.elapsed(),
            outcome,
            events: scope.map(|s| s.finish()).unwrap_or_default(),
        }
    };

    run_indexed(starts, workers, make_arena, run_one)
}

/// Renders a contained panic payload as the record's error string.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "start panicked with a non-string payload".to_string()
    }
}

/// Resolves a configured thread count: `0` means one worker per
/// available core, anything else is taken literally.
pub fn resolve_threads(configured: usize) -> usize {
    if configured == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        configured
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// The engine with a unit arena and no tracing.
    fn run_plain<T: Send>(
        starts: usize,
        workers: usize,
        work: impl Fn(usize) -> T + Sync,
    ) -> Vec<StartRecord<T>> {
        let (records, _) = run_starts_arena(
            starts,
            workers,
            &Collector::disabled(),
            || (),
            |i, _arena, _scope| work(i),
        );
        records
    }

    #[test]
    fn splitmix_streams_are_seed_functions() {
        let mut a = SplitMix64::for_start(42, 3);
        let mut b = SplitMix64::for_start(42, 3);
        let mut c = SplitMix64::for_start(42, 4);
        let draws_a: Vec<u64> = (0..32).map(|_| a.gen()).collect();
        let draws_b: Vec<u64> = (0..32).map(|_| b.gen()).collect();
        let draws_c: Vec<u64> = (0..32).map(|_| c.gen()).collect();
        assert_eq!(draws_a, draws_b);
        assert_ne!(draws_a, draws_c);
    }

    #[test]
    fn records_arrive_in_index_order_for_any_worker_count() {
        for workers in [1, 2, 3, 8, 64] {
            let records = run_plain(23, workers, |i| 100 - i);
            assert_eq!(records.len(), 23);
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r.index, i);
                assert_eq!(r.outcome, Ok(100 - i));
            }
        }
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let run = |workers| -> Vec<Result<u64, String>> {
            run_plain(17, workers, |i| {
                let mut rng = SplitMix64::for_start(7, i);
                (0..50)
                    .map(|_| rng.gen::<u64>())
                    .fold(0u64, u64::wrapping_add)
            })
            .into_iter()
            .map(|r| r.outcome)
            .collect()
        };
        let sequential = run(1);
        assert_eq!(sequential, run(2));
        assert_eq!(sequential, run(8));
    }

    #[test]
    fn panics_are_contained_and_recorded() {
        let records = run_plain(6, 3, |i| {
            assert!(i != 2 && i != 4, "start {i} poisoned");
            i
        });
        assert_eq!(records.len(), 6);
        for r in &records {
            match r.index {
                2 | 4 => {
                    let msg = r.outcome.as_ref().unwrap_err();
                    assert!(msg.contains("poisoned"), "message was {msg}");
                }
                i => assert_eq!(r.outcome, Ok(i)),
            }
        }
    }

    #[test]
    fn zero_starts_and_excess_workers() {
        let empty = run_plain(0, 8, |i| i);
        assert!(empty.is_empty());
        let one = run_plain(1, 8, |i| i + 1);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].outcome, Ok(1));
    }

    #[test]
    fn arena_engine_gives_each_worker_one_arena() {
        let (records, arenas) = run_starts_arena(
            16,
            4,
            &Collector::disabled(),
            Vec::new,
            |i, scratch: &mut Vec<usize>, scope| {
                assert!(scope.is_none(), "disabled collector must not build scopes");
                scratch.push(i);
                i * 2
            },
        );
        assert_eq!(records.len(), 16);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.outcome, Ok(i * 2));
            assert_eq!(r.events, ScopeEvents::default());
        }
        assert!(!arenas.is_empty() && arenas.len() <= 4, "{}", arenas.len());
        // every start touched exactly one arena exactly once
        let total: usize = arenas.iter().map(Vec::len).sum();
        assert_eq!(total, 16);
        assert!(arenas.iter().all(|a| !a.is_empty()));
    }

    #[test]
    fn arena_results_match_sequential_for_any_worker_count() {
        let work = |i: usize| {
            let mut rng = SplitMix64::for_start(11, i);
            (0..40)
                .map(|_| rng.gen::<u64>())
                .fold(0u64, u64::wrapping_add)
        };
        let baseline: Vec<Result<u64, String>> = (0..17).map(|i| Ok(work(i))).collect();
        for workers in [1, 2, 8] {
            let (records, _) = run_starts_arena(
                17,
                workers,
                &Collector::disabled(),
                || (),
                |i, _arena, _scope| work(i),
            );
            let got: Vec<_> = records.into_iter().map(|r| r.outcome).collect();
            assert_eq!(got, baseline, "workers={workers}");
        }
    }

    #[test]
    fn arena_engine_traces_when_collector_enabled() {
        let collector = Collector::enabled();
        let (records, _) = run_starts_arena(
            3,
            2,
            &collector,
            || (),
            |i, _arena, scope| {
                let scope = scope.expect("enabled collector must hand out scopes");
                scope.counter("probe", i as u64);
                i
            },
        );
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.events.order, order::start(i));
            assert_eq!(r.events.start_index, Some(i as u32));
            // RUNNER_START root span + the probe counter
            assert_eq!(r.events.events.len(), 2);
        }
    }

    #[test]
    fn arena_engine_contains_panics_and_keeps_the_worker_alive() {
        let (records, arenas) = run_starts_arena(
            8,
            2,
            &Collector::disabled(),
            Vec::new,
            |i, scratch: &mut Vec<usize>, _scope| {
                scratch.push(i);
                assert!(i != 3, "start {i} poisoned");
                i
            },
        );
        for r in &records {
            match r.index {
                3 => assert!(r.outcome.as_ref().unwrap_err().contains("poisoned")),
                i => assert_eq!(r.outcome, Ok(i)),
            }
        }
        // the panicking start still ran on a pooled arena and the worker
        // went on to claim more work afterwards
        let total: usize = arenas.iter().map(Vec::len).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn resolve_threads_auto_and_literal() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
