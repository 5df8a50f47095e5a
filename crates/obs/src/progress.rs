//! Live, lock-free progress telemetry.
//!
//! A [`Progress`] registry is a fixed array of monotonic atomic gauges —
//! one slot per [`Gauge`] — that hot paths update with relaxed atomics
//! and zero allocation, so attaching one to a run does not perturb the
//! allocation-regression contract of the multi-start hot loop. A
//! [`Sampler`] thread renders the registry as human-readable stderr
//! lines (`--progress`) and/or streams timestamped NDJSON samples
//! (`--metrics` + `--metrics-interval`).
//!
//! Determinism contract: the **final** value of every non-volatile gauge
//! is a pure function of the run's inputs — totals are planned up front,
//! "done" counters end equal to their totals, and `BestCut` is a `min`
//! over all starts, which is order-independent. [`canonical_snapshot`]
//! serializes exactly that deterministic subset with the volatile trace
//! fields zeroed, so the canonical metrics stream is byte-identical
//! across `--threads 1/2/8`. Gauges whose name carries the `mem.` prefix
//! are volatile wholesale (allocation counts depend on scheduling) and
//! are excluded from the canonical form; see
//! [`writer::is_volatile_event`](crate::writer::is_volatile_event).

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::event::{Event, EventKind, FieldValue};
use crate::{order, writer};

/// The live gauges a run exposes. Declaration order is the canonical
/// emission order of the metrics stream; append new gauges at the end of
/// their (progress/mem) group to keep old streams prefix-comparable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Dualize passes completed (one per retired pass; an uncapped build
    /// is one pass however many chunks carried it).
    DualizePassesDone,
    /// Dualize passes planned across all `Dualizer::build` calls.
    DualizePassesTotal,
    /// Candidate intersection pairs generated ("retired" through the
    /// bounded buffer under a pair cap).
    DualizePairsRetired,
    /// Multi-start attempts fully evaluated.
    StartsDone,
    /// Multi-start attempts planned.
    StartsTotal,
    /// Best cut size seen so far (`u64::MAX` until a start completes).
    BestCut,
    /// Coarsening levels the multilevel V-cycle has built (max over
    /// cycles).
    MlLevels,
    /// V-cycles completed.
    MlVcyclesDone,
    /// Edits the long-lived partition engine has applied.
    EngineEdits,
    /// Engine edits repaired incrementally (localized FM refinement).
    EngineIncrementalHits,
    /// Engine edits that fell back to a full from-scratch recompute.
    EngineFullRecomputes,
    /// Live heap bytes (volatile; needs the counting allocator).
    MemLiveBytes,
    /// Peak heap bytes (volatile; needs the counting allocator).
    MemPeakBytes,
    /// Heap acquisitions — alloc/alloc_zeroed/realloc calls (volatile;
    /// needs the counting allocator).
    MemAllocs,
}

impl Gauge {
    /// Every gauge, in canonical emission order.
    pub const ALL: [Gauge; 14] = [
        Gauge::DualizePassesDone,
        Gauge::DualizePassesTotal,
        Gauge::DualizePairsRetired,
        Gauge::StartsDone,
        Gauge::StartsTotal,
        Gauge::BestCut,
        Gauge::MlLevels,
        Gauge::MlVcyclesDone,
        Gauge::EngineEdits,
        Gauge::EngineIncrementalHits,
        Gauge::EngineFullRecomputes,
        Gauge::MemLiveBytes,
        Gauge::MemPeakBytes,
        Gauge::MemAllocs,
    ];

    /// The gauge's event name in the shared vocabulary.
    pub const fn name(self) -> &'static str {
        match self {
            Gauge::DualizePassesDone => crate::names::PROGRESS_DUALIZE_PASSES_DONE,
            Gauge::DualizePassesTotal => crate::names::PROGRESS_DUALIZE_PASSES_TOTAL,
            Gauge::DualizePairsRetired => crate::names::PROGRESS_DUALIZE_PAIRS_RETIRED,
            Gauge::StartsDone => crate::names::PROGRESS_STARTS_DONE,
            Gauge::StartsTotal => crate::names::PROGRESS_STARTS_TOTAL,
            Gauge::BestCut => crate::names::PROGRESS_BEST_CUT,
            Gauge::MlLevels => crate::names::PROGRESS_ML_LEVELS,
            Gauge::MlVcyclesDone => crate::names::PROGRESS_ML_VCYCLES_DONE,
            Gauge::EngineEdits => crate::names::ENGINE_EDITS,
            Gauge::EngineIncrementalHits => crate::names::ENGINE_INCREMENTAL_HITS,
            Gauge::EngineFullRecomputes => crate::names::ENGINE_FULL_RECOMPUTES,
            Gauge::MemLiveBytes => crate::names::MEM_LIVE_BYTES,
            Gauge::MemPeakBytes => crate::names::MEM_PEAK_BYTES,
            Gauge::MemAllocs => crate::names::MEM_ALLOCS,
        }
    }

    /// Whether the gauge's final value may depend on thread count or
    /// scheduling. Volatile gauges are excluded from the canonical
    /// metrics form. Mirrors the `mem.` prefix rule in
    /// [`writer::is_volatile_event`].
    pub const fn is_volatile(self) -> bool {
        matches!(
            self,
            Gauge::MemLiveBytes | Gauge::MemPeakBytes | Gauge::MemAllocs
        )
    }
}

/// Number of gauge slots in a [`Progress`] registry.
pub const NUM_GAUGES: usize = Gauge::ALL.len();

/// A lock-free registry of monotonic run gauges. All updates are relaxed
/// atomic read-modify-writes on pre-existing slots: no allocation, no
/// locks, safe to call from the multi-start hot loop.
#[derive(Debug)]
pub struct Progress {
    values: [AtomicU64; NUM_GAUGES],
}

impl Default for Progress {
    fn default() -> Self {
        Self::new()
    }
}

impl Progress {
    /// A fresh registry: every gauge 0 except `BestCut`, which starts at
    /// `u64::MAX` so [`record_min`](Self::record_min) works unseeded.
    pub fn new() -> Self {
        let p = Self {
            values: std::array::from_fn(|_| AtomicU64::new(0)),
        };
        p.slot(Gauge::BestCut).store(u64::MAX, Ordering::Relaxed);
        p
    }

    /// The one place a gauge discriminant becomes an array index.
    fn slot(&self, gauge: Gauge) -> &AtomicU64 {
        // fhp-audit: allow(panic-site) — `gauge as usize` < NUM_GAUGES by the repr(usize) enum definition
        &self.values[gauge as usize]
    }

    /// Adds `n` to a gauge.
    pub fn add(&self, gauge: Gauge, n: u64) {
        self.slot(gauge).fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites a gauge.
    pub fn set(&self, gauge: Gauge, value: u64) {
        self.slot(gauge).store(value, Ordering::Relaxed);
    }

    /// Lowers a gauge to `value` if `value` is smaller (atomic min).
    pub fn record_min(&self, gauge: Gauge, value: u64) {
        self.slot(gauge).fetch_min(value, Ordering::Relaxed);
    }

    /// Raises a gauge to `value` if `value` is larger (atomic max).
    pub fn record_max(&self, gauge: Gauge, value: u64) {
        self.slot(gauge).fetch_max(value, Ordering::Relaxed);
    }

    /// Reads a gauge.
    pub fn get(&self, gauge: Gauge) -> u64 {
        self.slot(gauge).load(Ordering::Relaxed)
    }

    /// Copies the allocator accounting (see [`crate::alloc`]) into the
    /// `mem.*` gauges. A no-op reading zeros unless the embedding binary
    /// installed the counting allocator.
    pub fn sync_alloc_gauges(&self) {
        let stats = crate::alloc::stats();
        self.set(Gauge::MemLiveBytes, stats.live_bytes);
        self.record_max(Gauge::MemPeakBytes, stats.peak_bytes);
        self.set(Gauge::MemAllocs, stats.allocs);
    }
}

/// Renders the registry as one human-readable line (no trailing
/// newline), e.g.
/// `dualize 17/17 passes · 67108864 pairs · starts 12/16 · best cut 42`.
/// Segments with no signal yet (zero totals) are omitted.
pub fn render_line(progress: &Progress) -> String {
    use crate::writer::put;
    let mut out = String::with_capacity(96);
    let sep = |out: &mut String| {
        if !out.is_empty() {
            out.push_str(" · ");
        }
    };
    let passes_total = progress.get(Gauge::DualizePassesTotal);
    if passes_total > 0 {
        put(
            &mut out,
            format_args!(
                "dualize {}/{} passes",
                progress.get(Gauge::DualizePassesDone),
                passes_total
            ),
        );
        sep(&mut out);
        put(
            &mut out,
            format_args!("{} pairs", progress.get(Gauge::DualizePairsRetired)),
        );
    }
    let starts_total = progress.get(Gauge::StartsTotal);
    if starts_total > 0 {
        sep(&mut out);
        put(
            &mut out,
            format_args!(
                "starts {}/{}",
                progress.get(Gauge::StartsDone),
                starts_total
            ),
        );
    }
    let best = progress.get(Gauge::BestCut);
    if best != u64::MAX {
        sep(&mut out);
        put(&mut out, format_args!("best cut {best}"));
    }
    let levels = progress.get(Gauge::MlLevels);
    if levels > 0 {
        sep(&mut out);
        put(
            &mut out,
            format_args!(
                "ml {} levels / {} vcycles",
                levels,
                progress.get(Gauge::MlVcyclesDone)
            ),
        );
    }
    let edits = progress.get(Gauge::EngineEdits);
    if edits > 0 {
        sep(&mut out);
        put(
            &mut out,
            format_args!(
                "engine {} edits ({} incr / {} full)",
                edits,
                progress.get(Gauge::EngineIncrementalHits),
                progress.get(Gauge::EngineFullRecomputes)
            ),
        );
    }
    let peak = progress.get(Gauge::MemPeakBytes);
    if peak > 0 {
        sep(&mut out);
        put(
            &mut out,
            format_args!(
                "mem {} live / {} peak / {} allocs",
                human_bytes(progress.get(Gauge::MemLiveBytes)),
                human_bytes(peak),
                progress.get(Gauge::MemAllocs)
            ),
        );
    }
    if out.is_empty() {
        out.push_str("starting");
    }
    out
}

fn human_bytes(bytes: u64) -> String {
    let mut value = bytes as f64;
    let mut unit = "B";
    for next in ["KiB", "MiB", "GiB", "TiB"] {
        if value < 1024.0 {
            break;
        }
        value /= 1024.0;
        unit = next;
    }
    if unit == "B" {
        format!("{bytes}B")
    } else {
        format!("{value:.1}{unit}")
    }
}

fn gauge_event(gauge: Gauge, value: u64, start_ns: u64) -> Event {
    Event {
        name: gauge.name(),
        kind: EventKind::Counter,
        stack: Vec::new(),
        start_ns,
        dur_ns: 0,
        scope_order: order::MEM,
        start_index: None,
        thread: 0,
        fields: vec![("value", FieldValue::U64(value))],
    }
}

/// The canonical metrics snapshot: one counter event per **non-volatile**
/// gauge, in declaration order, volatile trace fields zeroed. Serialized
/// with [`writer::ndjson_line`] this is `fhp-trace-check`-valid NDJSON
/// that is byte-identical across thread counts.
pub fn canonical_snapshot(progress: &Progress) -> Vec<Event> {
    Gauge::ALL
        .iter()
        .filter(|g| !g.is_volatile())
        .map(|&g| gauge_event(g, progress.get(g), 0))
        .collect()
}

/// A live sample of **every** gauge (volatile ones included), stamped
/// with `elapsed_ns` — the form the sampler streams at each interval.
pub fn sample_events(progress: &Progress, elapsed_ns: u64) -> Vec<Event> {
    Gauge::ALL
        .iter()
        .map(|&g| gauge_event(g, progress.get(g), elapsed_ns))
        .collect()
}

/// Writes the canonical snapshot of `progress` as NDJSON to `sink`.
pub fn write_canonical_snapshot<W: Write>(
    progress: &Progress,
    sink: &mut W,
) -> std::io::Result<()> {
    for event in canonical_snapshot(progress) {
        sink.write_all(writer::ndjson_line(&event).as_bytes())?;
        sink.write_all(b"\n")?;
    }
    sink.flush()
}

struct SamplerShared {
    stopped: Mutex<bool>,
    wake: Condvar,
}

/// A background thread that periodically renders a [`Progress`] registry
/// to stderr and/or streams timestamped NDJSON samples into a sink.
/// Stops (and joins) on [`finish`](Sampler::finish) or drop; the final
/// stderr line is emitted on stop so short runs still show their totals.
pub struct Sampler {
    shared: Arc<SamplerShared>,
    handle: Option<thread::JoinHandle<()>>,
    progress: Arc<Progress>,
    stderr: bool,
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler")
            .field("stderr", &self.stderr)
            .finish_non_exhaustive()
    }
}

impl Sampler {
    /// Spawns the sampler thread. `stderr` enables `[progress]` lines;
    /// `sink` (if any) receives one NDJSON sample block per interval.
    pub fn spawn(
        progress: Arc<Progress>,
        interval: Duration,
        stderr: bool,
        mut sink: Option<Box<dyn Write + Send>>,
    ) -> Self {
        let shared = Arc::new(SamplerShared {
            stopped: Mutex::new(false),
            wake: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let thread_progress = Arc::clone(&progress);
        let handle = thread::Builder::new()
            .name("fhp-progress".to_string())
            .spawn(move || {
                let started = Instant::now();
                loop {
                    {
                        let mut stopped = thread_shared
                            .stopped
                            .lock()
                            .unwrap_or_else(|e| e.into_inner());
                        while !*stopped {
                            let (guard, timeout) = thread_shared
                                .wake
                                .wait_timeout(stopped, interval)
                                .unwrap_or_else(|e| e.into_inner());
                            stopped = guard;
                            if timeout.timed_out() {
                                break;
                            }
                        }
                        if *stopped {
                            return;
                        }
                    }
                    thread_progress.sync_alloc_gauges();
                    if stderr {
                        eprintln!("[progress] {}", render_line(&thread_progress));
                    }
                    if let Some(out) = sink.as_mut() {
                        let elapsed = started.elapsed().as_nanos() as u64;
                        for event in sample_events(&thread_progress, elapsed) {
                            // fhp-audit: allow(ignored-result) — telemetry is best-effort; a closed sink must not kill the run
                            let _ = out.write_all(writer::ndjson_line(&event).as_bytes());
                            // fhp-audit: allow(ignored-result) — telemetry is best-effort; a closed sink must not kill the run
                            let _ = out.write_all(b"\n");
                        }
                        // fhp-audit: allow(ignored-result) — telemetry is best-effort; a closed sink must not kill the run
                        let _ = out.flush();
                    }
                }
            })
            // fhp-audit: allow(panic-site) — OS refusing to spawn one thread at startup has no useful degraded mode
            .expect("spawning the progress sampler thread");
        Self {
            shared,
            handle: Some(handle),
            progress,
            stderr,
        }
    }

    /// Stops the sampler thread, joins it, and (when stderr rendering is
    /// on) prints the final progress line.
    pub fn finish(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(handle) = self.handle.take() {
            {
                let mut stopped = self
                    .shared
                    .stopped
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                *stopped = true;
            }
            self.shared.wake.notify_all();
            // fhp-audit: allow(ignored-result) — a panicked sampler thread already logged; join error adds nothing
            let _ = handle.join();
            if self.stderr {
                self.progress.sync_alloc_gauges();
                eprintln!("[progress] {} · done", render_line(&self.progress));
            }
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The live-telemetry flags every front end takes: `--progress`,
/// `--metrics FILE` and `--metrics-interval MS`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryOptions {
    /// Render `[progress]` lines to stderr while the process runs.
    pub progress: bool,
    /// Write the canonical end-of-run gauge snapshot to this file.
    pub metrics: Option<String>,
    /// Also stream timestamped samples into the metrics file every this
    /// many milliseconds.
    pub metrics_interval: Option<u64>,
}

impl TelemetryOptions {
    /// Takes `flag` if it is a telemetry flag, reading its operand
    /// through `value` (called with the flag's name); `Ok(false)` means
    /// it is not one. Errors are `value`'s or a bad interval's message.
    pub fn parse_flag(
        &mut self,
        flag: &str,
        value: impl FnOnce(&str) -> Result<String, String>,
    ) -> Result<bool, String> {
        match flag {
            "--progress" => self.progress = true,
            "--metrics" => self.metrics = Some(value(flag)?),
            "--metrics-interval" => {
                let ms: u64 = value(flag)?
                    .parse()
                    .map_err(|_| "metrics interval must be a positive integer (ms)".to_string())?;
                if ms == 0 {
                    return Err("metrics interval must be at least 1 ms".to_string());
                }
                self.metrics_interval = Some(ms);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Checks the parsed flags against each other: `--metrics-interval`
    /// needs `--metrics`.
    pub fn validate(&self) -> Result<(), String> {
        if self.metrics_interval.is_some() && self.metrics.is_none() {
            return Err("--metrics-interval requires --metrics".to_string());
        }
        Ok(())
    }

    /// True if any telemetry was asked for.
    pub fn enabled(&self) -> bool {
        self.progress || self.metrics.is_some()
    }

    /// Starts the lifecycle: a gauge registry if any telemetry was asked
    /// for, and a sampler thread if `[progress]` lines or a sample stream
    /// were (every `metrics_interval` ms, else every 500 ms). Fails if
    /// the metrics file that samples stream into cannot be created.
    pub fn start(&self) -> Result<Telemetry, String> {
        let progress = self.enabled().then(|| Arc::new(Progress::new()));
        let mut sink: Option<Box<dyn Write + Send>> = None;
        if let (Some(_), Some(path)) = (self.metrics_interval, self.metrics.as_deref()) {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            sink = Some(Box::new(std::io::BufWriter::new(file)));
        }
        let sampler = progress.as_ref().and_then(|p| {
            (self.progress || sink.is_some()).then(|| {
                let interval = Duration::from_millis(self.metrics_interval.unwrap_or(500));
                Sampler::spawn(Arc::clone(p), interval, self.progress, sink)
            })
        });
        Ok(Telemetry {
            progress,
            sampler,
            metrics: self.metrics.clone(),
            append: self.metrics_interval.is_some(),
        })
    }
}

/// A started telemetry lifecycle (see [`TelemetryOptions::start`]):
/// the gauge registry the run updates and its sampler.
#[derive(Debug)]
pub struct Telemetry {
    progress: Option<Arc<Progress>>,
    sampler: Option<Sampler>,
    metrics: Option<String>,
    append: bool,
}

impl Telemetry {
    /// The gauge registry, if any telemetry was asked for.
    pub fn progress(&self) -> Option<&Arc<Progress>> {
        self.progress.as_ref()
    }

    /// Ends the lifecycle: stops the sampler, then writes the canonical
    /// snapshot to the metrics file — appended after the streamed samples
    /// when an interval was set, else as the whole file (byte-identical
    /// across thread counts). Fails if the file cannot be written.
    pub fn finish(self) -> Result<(), String> {
        if let Some(p) = &self.progress {
            p.sync_alloc_gauges();
        }
        if let Some(s) = self.sampler {
            s.finish();
        }
        let (Some(path), Some(p)) = (&self.metrics, &self.progress) else {
            return Ok(());
        };
        let file = if self.append {
            std::fs::OpenOptions::new().append(true).open(path)
        } else {
            std::fs::File::create(path)
        };
        file.and_then(|f| write_canonical_snapshot(p, &mut std::io::BufWriter::new(f)))
            .map_err(|e| format!("cannot write {path}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::BTreeSet;

    #[test]
    fn gauge_names_are_unique_and_prefixed() {
        let mut seen = BTreeSet::new();
        for gauge in Gauge::ALL {
            assert!(seen.insert(gauge.name()), "duplicate name {}", gauge.name());
            let mem = gauge.name().starts_with("mem.");
            assert_eq!(
                mem,
                gauge.is_volatile(),
                "{}: the mem. prefix and is_volatile must agree",
                gauge.name()
            );
            if !mem {
                assert!(
                    gauge.name().starts_with("progress.") || gauge.name().starts_with("engine."),
                    "{}: deterministic gauges use the progress. or engine. prefix",
                    gauge.name()
                );
            }
        }
        assert_eq!(seen.len(), NUM_GAUGES);
    }

    #[test]
    fn fresh_registry_reads_zero_except_best_cut() {
        let p = Progress::new();
        for gauge in Gauge::ALL {
            let expect = if gauge == Gauge::BestCut { u64::MAX } else { 0 };
            assert_eq!(p.get(gauge), expect, "{}", gauge.name());
        }
    }

    #[test]
    fn add_set_min_max_compose() {
        let p = Progress::new();
        p.add(Gauge::StartsDone, 3);
        p.add(Gauge::StartsDone, 2);
        assert_eq!(p.get(Gauge::StartsDone), 5);
        p.set(Gauge::StartsTotal, 16);
        assert_eq!(p.get(Gauge::StartsTotal), 16);
        p.record_min(Gauge::BestCut, 40);
        p.record_min(Gauge::BestCut, 55);
        p.record_min(Gauge::BestCut, 12);
        assert_eq!(p.get(Gauge::BestCut), 12);
        p.record_max(Gauge::MlLevels, 4);
        p.record_max(Gauge::MlLevels, 2);
        assert_eq!(p.get(Gauge::MlLevels), 4);
    }

    /// The racy-interleaving contract: concurrent adds sum exactly,
    /// concurrent mins converge to the global minimum, regardless of
    /// scheduling.
    #[test]
    fn concurrent_updates_are_exact() {
        let p = Arc::new(Progress::new());
        let threads = 8;
        let per_thread = 1000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let p = Arc::clone(&p);
                thread::spawn(move || {
                    for i in 0..per_thread {
                        p.add(Gauge::StartsDone, 1);
                        p.add(Gauge::DualizePairsRetired, 3);
                        // Every thread offers a different interleaved
                        // stream of cuts; the global min is 7 (t=0, i=0).
                        p.record_min(Gauge::BestCut, 7 + t * 13 + i);
                        p.record_max(Gauge::MlLevels, t + 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        assert_eq!(p.get(Gauge::StartsDone), threads * per_thread);
        assert_eq!(p.get(Gauge::DualizePairsRetired), 3 * threads * per_thread);
        assert_eq!(p.get(Gauge::BestCut), 7);
        assert_eq!(p.get(Gauge::MlLevels), threads);
    }

    #[test]
    fn canonical_snapshot_is_deterministic_and_trace_valid() {
        let build = |extra_noise: bool| {
            let p = Progress::new();
            p.set(Gauge::DualizePassesTotal, 4);
            p.add(Gauge::DualizePassesDone, 4);
            p.add(Gauge::DualizePairsRetired, 1234);
            p.set(Gauge::StartsTotal, 8);
            p.add(Gauge::StartsDone, 8);
            p.record_min(Gauge::BestCut, 42);
            if extra_noise {
                // Volatile gauges differ across "thread counts"…
                p.set(Gauge::MemLiveBytes, 999);
                p.set(Gauge::MemPeakBytes, 123_456);
                p.set(Gauge::MemAllocs, 77);
            }
            let mut buf = Vec::new();
            write_canonical_snapshot(&p, &mut buf).unwrap();
            String::from_utf8(buf).unwrap()
        };
        let a = build(false);
        let b = build(true);
        // …yet the canonical stream is byte-identical.
        assert_eq!(a, b);
        assert!(!a.contains("mem."));
        let lines: Vec<_> = a.lines().collect();
        assert_eq!(
            lines.len(),
            Gauge::ALL.iter().filter(|g| !g.is_volatile()).count()
        );
        for line in &lines {
            json::validate_trace_line(line).unwrap();
            assert!(line.contains("\"start_ns\":0,\"dur_ns\":0"));
            assert!(line.contains("\"thread\":0"));
        }
        assert!(lines[0].contains("progress.dualize_passes_done"));
    }

    #[test]
    fn sample_events_include_volatile_gauges() {
        let p = Progress::new();
        p.set(Gauge::MemPeakBytes, 4096);
        let events = sample_events(&p, 55);
        assert_eq!(events.len(), NUM_GAUGES);
        assert!(events.iter().any(|e| e.name == "mem.peak_bytes"));
        assert!(events.iter().all(|e| e.start_ns == 55));
        for event in &events {
            json::validate_trace_line(&writer::ndjson_line(event)).unwrap();
        }
    }

    /// A shared Vec sink the sampler can own while the test keeps a
    /// handle for inspection.
    struct SharedSink(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn sampler_streams_valid_samples_and_stops() {
        let progress = Arc::new(Progress::new());
        progress.set(Gauge::StartsTotal, 4);
        let bytes = Arc::new(Mutex::new(Vec::new()));
        let sampler = Sampler::spawn(
            Arc::clone(&progress),
            Duration::from_millis(1),
            false,
            Some(Box::new(SharedSink(Arc::clone(&bytes)))),
        );
        // Wait for at least one full sample block to land.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let n = bytes.lock().unwrap().len();
            if n > 0 || Instant::now() > deadline {
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        sampler.finish();
        let text = String::from_utf8(bytes.lock().unwrap().clone()).unwrap();
        assert!(!text.is_empty(), "sampler never produced a sample");
        for line in text.lines() {
            json::validate_trace_line(line).unwrap();
        }
    }
}
