//! Reading the traced run's spans. Each workload pass records into one
//! `fhp_obs::Scope` under a root span named after the workload; a layer
//! call is a span whose stack is exactly that root.

use fhp_obs::{Event, EventKind, Scope};

/// Runs `f` inside a span named `name` of `scope`.
pub fn timed<T>(scope: &Scope, name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = scope.span(name);
    f()
}

/// The spans directly below the root span `root`, in call order.
fn children<'a>(events: &'a [Event], root: &'a str) -> impl Iterator<Item = &'a Event> {
    events
        .iter()
        .filter(move |e| e.kind == EventKind::Span && e.stack.as_slice() == [root])
}

/// Duration of the root span `root`.
pub fn root_ns(events: &[Event], root: &str) -> u64 {
    events
        .iter()
        .filter(|e| e.kind == EventKind::Span && e.stack.is_empty() && e.name == root)
        .map(|e| e.dur_ns)
        .sum()
}

/// Durations of the layer calls named `name` below `root`, in call order.
pub fn child_durs(events: &[Event], root: &str, name: &str) -> Vec<u64> {
    children(events, root)
        .filter(|e| e.name == name)
        .map(|e| e.dur_ns)
        .collect()
}

/// Summed duration of the layer calls named `name` below `root`.
pub fn child_ns(events: &[Event], root: &str, name: &str) -> u64 {
    child_durs(events, root, name).iter().sum()
}

/// Self time of `root`: its duration minus what its layer calls cover
/// (they run one after another, so their durations do not overlap).
pub fn self_ns(events: &[Event], root: &str) -> u64 {
    let covered: u64 = children(events, root).map(|e| e.dur_ns).sum();
    root_ns(events, root).saturating_sub(covered)
}
