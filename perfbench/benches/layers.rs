//! The traced run: every workload's inputs replayed in-process through
//! the layers' public functions, with a span around each call, beside a
//! few untraced runs of the program that anchor the per-layer numbers to
//! what a user sees.

use std::path::Path;
use std::time::Duration;

use fhp_core::multilevel::coarsen_sequence;
use fhp_core::{
    Algorithm1, CompletionStrategy, CutReport, MultilevelConfig, Objective, PartitionConfig,
    PartitionOutcome, PhaseStats,
};
use fhp_hypergraph::intersection::{DualizeStats, Dualizer};
use fhp_hypergraph::{hgr, Hypergraph};
use fhp_obs::{Collector, Event, Scope, TraceWriter};

use crate::batch::{self, Checked, Instance};
use crate::proc::Program;
use crate::serve;
use crate::stats::{median, ms, percentile, Outcome};
use crate::trace::{child_durs, child_ns, root_ns, self_ns, timed};

/// Traced passes over the flat workload, each followed by one untraced
/// `fhp` run; the per-layer numbers are medians over them.
const FLAT_REPS: usize = 3;

/// The in-process twin of `fhp <hgr> -t 10 -s 8 --threads 1`.
fn flat_config() -> PartitionConfig {
    PartitionConfig::new()
        .starts(8)
        .seed(0)
        .threads(1)
        .edge_size_threshold(Some(10))
        .completion(CompletionStrategy::MinDegree)
        .objective(Objective::CutSize)
}

fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// One workload pass: `f` records into a scope of its own, `order`
/// being its merge key, under a root span named `root`. Returns `f`'s
/// result and the pass's events; the collector keeps them for the trace
/// file.
fn pass<T>(
    collector: &Collector,
    order: u64,
    root: &'static str,
    f: impl FnOnce(&Scope) -> T,
) -> (T, Vec<Event>) {
    let scope = collector.scope(order, None);
    let result = timed(&scope, root, || f(&scope));
    let events = scope.finish();
    let copy = events.events.clone();
    collector.adopt(events);
    (result, copy)
}

/// Reads and parses the instance as the CLI does, inside the open span.
fn read_parse(scope: &Scope, path: &Path) -> Result<(usize, Hypergraph), String> {
    let text = timed(scope, "io.read", || std::fs::read_to_string(path)).map_err(err("read"))?;
    let h = timed(scope, "hgr.parse", || hgr::parse_hgr(&text)).map_err(err("parse"))?;
    Ok((text.len(), h))
}

fn checked(h: &Hypergraph, out: &PartitionOutcome) -> Checked {
    let r = CutReport::new(h, &out.bipartition);
    Checked {
        cut: r.cut_size,
        left: r.counts.0,
        right: r.counts.1,
    }
}

fn ms_ns(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Median over traced passes of `f(events)`.
fn med(passes: &[Vec<Event>], f: impl Fn(&[Event]) -> f64) -> f64 {
    median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>())
}

/// Coverage metrics of a traced workload `root` (medians over its
/// passes): its wall, the share its layer spans cover, the remainder, and
/// traced minus untraced wall.
fn coverage(passes: &[Vec<Event>], root: &str, untraced_ms: f64, out: &mut Outcome) {
    let wall = med(passes, |p| ms_ns(root_ns(p, root)));
    let unattributed = med(passes, |p| ms_ns(self_ns(p, root)));
    out.metric(&format!("trace.{root}.wall_ms"), wall, "ms");
    out.metric(
        &format!("trace.{root}.coverage"),
        (wall - unattributed) / wall,
        "ratio",
    );
    out.metric(&format!("trace.{root}.unattributed_ms"), unattributed, "ms");
    out.metric(
        &format!("trace.{root}.overhead_ms"),
        wall - untraced_ms,
        "ms",
    );
}

type FlatPass = (usize, Hypergraph, DualizeStats, PartitionOutcome, CutReport);

/// One traced pass over the flat workload's layers.
fn flat_pass(scope: &Scope, path: &Path) -> Result<FlatPass, String> {
    let (bytes, h) = read_parse(scope, path)?;
    let (_, components) = timed(scope, "hypergraph.components", || h.connected_components());
    scope.counter("hypergraph.component_count", components as u64);
    let ig = timed(scope, "dualize", || {
        Dualizer::new().threshold(Some(10)).threads(1).build(&h)
    })
    .map_err(err("dualize"))?;
    let run =
        timed(scope, "alg1.run", || Algorithm1::new(flat_config()).run(&h)).map_err(err("alg1"))?;
    let report = timed(scope, "report", || CutReport::new(&h, &run.bipartition));
    Ok((bytes, h, ig.stats().clone(), run, report))
}

fn flat(
    collector: &Collector,
    fhp: &Program,
    inst: &Instance,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut passes = Vec::new();
    let mut runs = Vec::new();
    let mut walls = Vec::new();
    let mut output_bytes = 0;
    for i in 0..FLAT_REPS {
        let (result, events) = pass(collector, i as u64, "flat", |s| flat_pass(s, &inst.path));
        let (bytes, h, d, run, report) = result?;
        passes.push(events);
        let result = batch::run_once(fhp, inst, false).and_then(|(done, c)| {
            walls.push(ms(done.wall));
            output_bytes = done.stdout.len();
            same_partition(&c, &checked(&h, &run))
        });
        out.check(&format!("traced flat process run {i}"), result);
        runs.push((bytes, h, d, run, report));
    }
    let process_ms = median(&walls);
    let child = |name: &str| med(&passes, |p| ms_ns(child_ns(p, "flat", name)));
    let parse_ms = child("hgr.parse");
    let run_ms = child("alg1.run");
    let phase = |f: fn(&PhaseStats) -> Duration| {
        median(
            &runs
                .iter()
                .map(|r| ms(f(&r.3.stats.phases)))
                .collect::<Vec<_>>(),
        )
    };
    let (bytes, h, d, run, report) = runs.last().expect("FLAT_REPS > 0");

    out.metric("hgr.parse_ms", parse_ms, "ms");
    out.metric("hgr.bytes", *bytes as f64, "bytes");
    out.metric(
        "hypergraph.components_ms",
        child("hypergraph.components"),
        "ms",
    );
    out.metric("dualize.ms", child("dualize"), "ms");
    out.metric("dualize.pairs_generated", d.pairs_generated as f64, "count");
    out.metric("dualize.unique_edges", d.unique_edges as f64, "count");
    out.metric(
        "dualize.unique_ratio",
        d.unique_edges as f64 / d.pairs_generated.max(1) as f64,
        "ratio",
    );
    let s = &run.stats;
    out.metric("alg1.run_ms", run_ms, "ms");
    out.metric("alg1.dualize_ms", phase(|p| p.dualize.wall), "ms");
    out.metric("alg1.longest_path_ms", phase(|p| p.longest_path_bfs), "ms");
    out.metric("alg1.dual_front_ms", phase(|p| p.dual_front_bfs), "ms");
    out.metric("alg1.complete_cut_ms", phase(|p| p.complete_cut), "ms");
    out.metric(
        "alg1.unattributed_ms",
        run_ms - phase(PhaseStats::total_wall),
        "ms",
    );
    out.metric("alg1.starts", s.starts as f64, "count");
    out.metric("alg1.g_vertices", s.num_g_vertices as f64, "count");
    out.metric("alg1.boundary_len", s.boundary_len as f64, "count");
    out.metric(
        "alg1.bfs_path_length",
        f64::from(s.bfs_path_length),
        "count",
    );
    out.metric("alg1.cut", report.cut_size as f64, "count");
    out.metric(
        "alg1.max_side_share",
        report.counts.0.max(report.counts.1) as f64 / h.num_vertices() as f64,
        "ratio",
    );
    out.metric("cli.overhead_ms", process_ms - parse_ms - run_ms, "ms");
    out.metric("cli.output_bytes", output_bytes as f64, "bytes");
    coverage(&passes, "flat", process_ms, out);
    Ok(())
}

fn same_partition(process: &Checked, in_process: &Checked) -> Result<(), String> {
    if process == in_process {
        Ok(())
    } else {
        Err(format!(
            "fhp printed {process:?}, the in-process replay gave {in_process:?}"
        ))
    }
}

fn vcycle(
    collector: &Collector,
    order: u64,
    fhp: &Program,
    inst: &Instance,
    out: &mut Outcome,
) -> Result<(), String> {
    let ml = MultilevelConfig::new();
    let (result, events) = pass(collector, order, "vcycle", |scope| {
        let (_, h) = read_parse(scope, &inst.path)?;
        let levels = timed(scope, "multilevel.coarsen", || coarsen_sequence(&h, &ml))
            .map_err(err("coarsen"))?;
        let run = timed(scope, "multilevel.run", || {
            Algorithm1::new(flat_config().multilevel(Some(ml))).run(&h)
        })
        .map_err(err("multilevel"))?;
        timed(scope, "multilevel.flat_guard", || {
            Algorithm1::new(flat_config()).run(&h)
        })
        .map_err(err("flat guard"))?;
        timed(scope, "report", || CutReport::new(&h, &run.bipartition));
        Ok::<_, String>((h, levels, run))
    });
    let (h, levels, run) = result?;
    let result = batch::run_once(fhp, inst, true);
    // A failed run is counted below; its overhead then reads against 0.
    let process_ms = result.as_ref().map_or(0.0, |(done, _)| ms(done.wall));
    out.check(
        "traced vcycle process run",
        result.and_then(|(_, c)| same_partition(&c, &checked(&h, &run))),
    );
    let stats = run
        .stats
        .multilevel
        .as_ref()
        .ok_or("multilevel run has no stats")?;
    let coarsen = ms_ns(child_ns(&events, "vcycle", "multilevel.coarsen"));
    let run_ms = ms_ns(child_ns(&events, "vcycle", "multilevel.run"));
    let guard = ms_ns(child_ns(&events, "vcycle", "multilevel.flat_guard"));
    out.metric("multilevel.coarsen_ms", coarsen, "ms");
    out.metric("multilevel.levels", stats.levels as f64, "count");
    out.metric(
        "multilevel.coarsest_size",
        levels
            .last()
            .map_or(h.num_vertices(), |c| c.coarse().num_vertices()) as f64,
        "count",
    );
    out.metric("multilevel.run_ms", run_ms, "ms");
    out.metric("multilevel.flat_guard_ms", guard, "ms");
    out.metric("multilevel.refine_ms", run_ms - coarsen - guard, "ms");
    coverage(&[events], "vcycle", process_ms, out);
    Ok(())
}

fn serve_eco(
    collector: &Collector,
    order: u64,
    fhp: &Program,
    instances: &[Hypergraph],
    seed: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    const ROOT: &str = "serve-eco";
    let (scripted, events) = pass(collector, order, ROOT, |scope| {
        instances
            .iter()
            .enumerate()
            .map(|(i, h)| serve::Scripted::new(h, seed, i, scope))
            .collect::<Result<Vec<_>, _>>()
    });
    let scripted = scripted?;
    let mut times = Vec::new();
    for x in &scripted {
        times.push(serve::session(fhp, x, out)?);
    }

    let us = |v: Vec<u64>| -> Vec<f64> { v.into_iter().map(|ns| ns as f64 / 1e3).collect() };
    let each_ms = |name| median(&us(child_durs(&events, ROOT, name))) / 1e3;
    let netlist = us(child_durs(&events, ROOT, "netlist.edit"));
    let apply = us(child_durs(&events, ROOT, "engine.apply"));
    let fingerprint = us(child_durs(&events, ROOT, "engine.fingerprint"));
    let repair: Vec<f64> = apply
        .iter()
        .zip(&fingerprint)
        .zip(&netlist)
        .map(|((a, f), n)| a - f - n)
        .collect();
    let apply_p50 = median(&apply);
    out.metric("netlist.build_ms", each_ms("netlist.build"), "ms");
    out.metric("netlist.edit_us.p50", median(&netlist), "us");
    out.metric("netlist.edit_us.p99", percentile(&netlist, 0.99), "us");
    out.metric("engine.load_ms", each_ms("engine.load"), "ms");
    out.metric("engine.apply_us.p50", apply_p50, "us");
    out.metric("engine.apply_us.p99", percentile(&apply, 0.99), "us");
    out.metric("engine.fingerprint_us.p50", median(&fingerprint), "us");
    out.metric(
        "engine.fingerprint_share",
        median(&fingerprint) / apply_p50,
        "ratio",
    );
    out.metric("engine.repair_us.p50", median(&repair), "us");
    let total = |f: fn(&serve::Reference) -> u64| -> f64 {
        scripted.iter().map(|x| f(&x.reference)).sum::<u64>() as f64
    };
    out.metric(
        "engine.incremental_hits",
        total(|r| r.stats.incremental_hits),
        "count",
    );
    out.metric(
        "engine.full_recomputes",
        total(|r| r.stats.full_recomputes),
        "count",
    );
    out.metric(
        "engine.damaged_modules",
        total(|r| {
            r.replies
                .iter()
                .map(|e| match e {
                    serve::Expect::Edit { damaged, .. } => *damaged as u64,
                    serve::Expect::Query { .. } => 0,
                })
                .sum()
        }),
        "count",
    );
    // The scripts that ran the full-recompute tier, whose final states
    // sit in the tail of the gated quality median.
    let recomputed: Vec<f64> = scripted
        .iter()
        .filter(|x| x.reference.stats.full_recomputes > 0)
        .map(|x| x.reference.final_quotient)
        .collect();
    out.metric("engine.recompute_quotient", median(&recomputed), "ratio");

    let edits: Vec<f64> = times
        .iter()
        .flat_map(|t| &t.edits)
        .map(|&d| ms(d))
        .collect();
    let queries: Vec<f64> = times
        .iter()
        .flat_map(|t| &t.queries)
        .map(|d| d.as_secs_f64() * 1e6)
        .collect();
    let sum = |f: fn(&serve::SessionTimes) -> f64| -> f64 { times.iter().map(f).sum() };
    // Client and server timings of the same sessions: on a box whose
    // speed drifts, a difference against the in-process replay would not
    // hold.
    let dispatch_us = sum(|t| t.dispatch.1 as f64) / 1e3 / sum(|t| t.dispatch.0 as f64).max(1.0);
    let client_us = edits.iter().sum::<f64>() * 1e3 / edits.len().max(1) as f64;
    out.metric("serve.dispatch_us", dispatch_us, "us");
    out.metric("serve.wait_us.mean", client_us - dispatch_us, "us");
    out.metric("serve.query_us.p50", median(&queries), "us");
    out.metric("serve.edit_ms.p99", percentile(&edits, 0.99), "ms");
    out.metric(
        "serve.edits_per_s",
        edits.len() as f64 / sum(|t| t.script.as_secs_f64()),
        "1/s",
    );
    out.metric(
        "serve.request_bytes",
        sum(|t| t.edit_bytes as f64) / edits.len().max(1) as f64,
        "bytes",
    );
    out.metric(
        "serve.peak_rss_mb.max",
        times.iter().map(|t| t.peak_rss_mb).fold(0.0, f64::max),
        "MiB",
    );
    coverage(&[events], ROOT, sum(|t| ms(t.wall)), out);
    Ok(())
}

/// The traced run: the batch workloads on instance 0 of `seed` and
/// serve-eco on all its instances, written to `trace_path` and validated
/// with `fhp-trace-check`.
pub fn run(
    fhp: &Program,
    trace_check: &Path,
    work: &Path,
    seed: u64,
    trace_path: &Path,
    out: &mut Outcome,
) {
    let collector = Collector::enabled();
    let result = batch::instance(work, batch::SIGNALS, seed, 0).and_then(|inst| {
        flat(&collector, fhp, &inst, out)?;
        let order = FLAT_REPS as u64;
        vcycle(&collector, order, fhp, &inst, out)?;
        let instances = (0..serve::SCRIPTED)
            .map(|i| batch::generate(serve::SIGNALS, seed, i))
            .collect::<Result<Vec<_>, _>>()?;
        serve_eco(&collector, order + 1, fhp, &instances, seed, out)
    });
    out.check("traced run", result);
    let valid = std::fs::File::create(trace_path)
        .and_then(|f| {
            TraceWriter::new(std::io::BufWriter::new(f)).write_events(&collector.snapshot())
        })
        .map_err(err("write trace"))
        .and_then(|()| {
            let status = std::process::Command::new(trace_check)
                .arg(trace_path)
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(err("fhp-trace-check"))?;
            if status.success() {
                Ok(())
            } else {
                Err(format!("fhp-trace-check rejected {}", trace_path.display()))
            }
        });
    out.check("trace validation", valid);
}
