//! The `serve-eco` workload: sessions of `fhp serve` over stdin, each
//! loaded with one instance's `partition` request and driven through that
//! instance's seeded synthetic edit script, one request in flight at a
//! time. Every reply is checked against an in-process `PartitionEngine`
//! replay of the same script.

use std::io::{BufRead, BufReader, Write};
use std::process::{ChildStdin, ChildStdout, Stdio};
use std::time::{Duration, Instant};

use fhp_core::{Edit, EngineConfig, EngineStats, PartitionConfig, PartitionEngine, Side};
use fhp_hypergraph::{DynamicNetlist, Hypergraph};
use fhp_obs::json::{self, Json};
use fhp_obs::Scope;

use crate::batch::instance_seed;
use crate::proc::{self, Program};
use crate::stats::{median, ms, percentile, quotient_cut, Outcome, Rng};
use crate::trace::timed;

/// Signals of every served instance: the largest scaling tier whose
/// `partition` request stays under the server's 1 MiB line cap.
pub const SIGNALS: usize = 40_000;
/// Instances per run, each served in sessions of its own script. A pass
/// over them plays `SCRIPTED` × `EDITS` = 1 200 edits, so twelve lie
/// beyond p99; quality is taken over the instances.
pub const SCRIPTED: usize = 30;

// The script's mix is a synthetic choice. No recorded edit stream was
// available to derive it from, so every proportion below is unverified;
// each comment gives the reason for the choice.

/// Edits per script: short, so that a run serves many instances and its
/// quality figure does not hang on a few partitions (across seeds, the
/// median over 15 instances still varied by 20%).
const EDITS: usize = 40;
/// Chance that an edit is followed by a `query_cut` read: enough reads
/// to time the query path, few enough that edits dominate the session.
const QUERY_P: f64 = 0.1;
/// Small edits draw from `SMALL_MIX` slots: adds take slightly more
/// than removes, offsetting the removes of nets added wide, so the live
/// net count stays near the loaded one; pin edits take the rest so
/// `pin_change` is timed too.
const SMALL_MIX: usize = 20;
const SMALL_ADDS: usize = 8;
const SMALL_REMOVES: usize = 7;
/// Pins of a small `add_net`: 2 to 4, the size of a typical signal net.
const SMALL_PINS: (usize, usize) = (2, 5);
/// Wide `add_net`s per script (5% of the edits), with pin counts spread
/// evenly over `WIDE_PINS`: wide enough to set the latency tail, narrow
/// enough to stay in the incremental tier. The counts are fixed, not
/// drawn, so that every seed's script has the same tail.
const WIDE: usize = EDITS / 20;
const WIDE_PINS: (usize, usize) = (200, 1_000);
/// Every `HUGE_EVERY`-th instance's script adds, at `HUGE_AT.0`, a net
/// wide enough to cross the damage threshold, and removes it at
/// `HUGE_AT.1`: three such nets per pass, each running the
/// full-recompute tier twice, so the tier runs a known number of times.
/// The net has `HUGE_SHARE` of the modules, above the 25% threshold.
const HUGE_EVERY: usize = 10;
const HUGE_AT: (usize, usize) = (10, 30);
const HUGE_SHARE: (usize, usize) = (3, 10);
/// Damage threshold the server runs with (its default), in permille of
/// the live modules.
const DAMAGE_PERMILLE: u32 = 250;
/// Starts and seed of every `partition` request.
const STARTS: usize = 8;
const PARTITION_SEED: u64 = 0;

/// One scripted request.
pub enum Op {
    Edit(Edit),
    Query,
}

impl Op {
    fn request(&self, id: usize) -> String {
        match self {
            Op::Query => format!("{{\"id\":{id},\"verb\":\"query_cut\"}}"),
            Op::Edit(Edit::AddNet { pins, .. }) => format!(
                "{{\"id\":{id},\"verb\":\"edit\",\"op\":\"add_net\",\"pins\":[{}]}}",
                join(pins)
            ),
            Op::Edit(Edit::RemoveNet { net }) => {
                format!("{{\"id\":{id},\"verb\":\"edit\",\"op\":\"remove_net\",\"net\":{net}}}")
            }
            Op::Edit(Edit::PinChange { net, module, add }) => format!(
                "{{\"id\":{id},\"verb\":\"edit\",\"op\":\"pin\",\"net\":{net},\"module\":{module},\"add\":{add}}}"
            ),
            Op::Edit(other) => unreachable!("the script never emits {other:?}"),
        }
    }
}

fn join(ids: &[u32]) -> String {
    ids.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
}

/// The `partition` request that loads `h`; weights travel only where
/// they differ from the server's default of 1.
pub fn partition_request(h: &Hypergraph) -> String {
    let nets: Vec<String> = h
        .edges()
        .map(|e| {
            let pins: Vec<u32> = h.pins(e).iter().map(|p| p.index() as u32).collect();
            format!("[{}]", join(&pins))
        })
        .collect();
    let mut request = format!(
        "{{\"id\":0,\"verb\":\"partition\",\"modules\":{},\"seed\":{PARTITION_SEED},\"starts\":{STARTS},\"nets\":[{}]",
        h.num_vertices(),
        nets.join(",")
    );
    let weights: Vec<u64> = h.vertices().map(|v| h.vertex_weight(v)).collect();
    let net_weights: Vec<u64> = h.edges().map(|e| h.edge_weight(e)).collect();
    for (key, w) in [("weights", weights), ("net_weights", net_weights)] {
        if w.iter().any(|&x| x != 1) {
            let w: Vec<String> = w.iter().map(u64::to_string).collect();
            request.push_str(&format!(",\"{key}\":[{}]", w.join(",")));
        }
    }
    request.push('}');
    request
}

/// `k` distinct modules of `0..m`.
fn distinct(rng: &mut Rng, m: usize, k: usize) -> Vec<u32> {
    let mut all: Vec<u32> = (0..m as u32).collect();
    for i in 0..k {
        let j = rng.range(i, m);
        all.swap(i, j);
    }
    all.truncate(k);
    all
}

/// The seeded synthetic script for `h`: small `add_net` / `remove_net` /
/// `pin` edits, `WIDE` wide `add_net`s at seeded points, with `huge` a
/// huge net added and removed at `HUGE_AT`, and about 10% `query_cut`
/// reads.
///
/// No edit takes a module off its last net. A module left on no net
/// could be split off at cut 0, and the quotient the benchmark gates
/// would then read 0 whatever the repair did.
pub fn script(h: &Hypergraph, seed: u64, huge: bool) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let m = h.num_vertices();
    let mut pins: Vec<Vec<u32>> = h
        .edges()
        .map(|e| h.pins(e).iter().map(|p| p.index() as u32).collect())
        .collect();
    // Live nets per module, the huge ones not counted: they leave again.
    let mut degree = vec![0u32; m];
    for net in &pins {
        for &p in net {
            degree[p as usize] += 1;
        }
    }
    // Nets the small edits may remove or re-pin (never a huge one).
    let mut live: Vec<u32> = (0..pins.len() as u32).collect();
    let huge_at = |i: usize| huge && (i == HUGE_AT.0 || i == HUGE_AT.1);
    let mut huge_id = 0;
    let mut wide = vec![None; EDITS];
    let mut slots: Vec<usize> = (0..EDITS).filter(|&i| !huge_at(i)).collect();
    for k in 0..WIDE {
        let j = rng.range(k, slots.len());
        slots.swap(k, j);
        wide[slots[k]] = Some(WIDE_PINS.0 + (WIDE_PINS.1 - WIDE_PINS.0) * k / (WIDE - 1));
    }
    let mut ops = Vec::new();
    for (i, &wide_pins) in wide.iter().enumerate() {
        let edit = if huge_at(i) && i == HUGE_AT.0 {
            huge_id = pins.len() as u32;
            let p = distinct(&mut rng, m, m * HUGE_SHARE.0 / HUGE_SHARE.1);
            pins.push(p.clone());
            Edit::AddNet { pins: p, weight: 1 }
        } else if huge_at(i) {
            Edit::RemoveNet { net: huge_id }
        } else {
            // `Ok(pins)` for an `add_net`, else `Err(pick)` of a small edit.
            let add = match wide_pins {
                Some(k) => Ok(k),
                None => match rng.range(0, SMALL_MIX) {
                    pick if pick < SMALL_ADDS => Ok(rng.range(SMALL_PINS.0, SMALL_PINS.1)),
                    pick => Err(pick),
                },
            };
            if let Ok(k) = add {
                let p = distinct(&mut rng, m, k);
                for &x in &p {
                    degree[x as usize] += 1;
                }
                live.push(pins.len() as u32);
                pins.push(p.clone());
                Edit::AddNet { pins: p, weight: 1 }
            } else if add.is_err_and(|pick| pick < SMALL_ADDS + SMALL_REMOVES) {
                let at = loop {
                    let at = rng.range(0, live.len());
                    if pins[live[at] as usize]
                        .iter()
                        .all(|&x| degree[x as usize] >= 2)
                    {
                        break at;
                    }
                };
                let net = live.swap_remove(at);
                for &x in &pins[net as usize] {
                    degree[x as usize] -= 1;
                }
                Edit::RemoveNet { net }
            } else {
                let net = live[rng.range(0, live.len())];
                let np = &mut pins[net as usize];
                let j = rng.range(0, np.len());
                // Half the pin edits remove a pin, so net sizes stay
                // near their loaded sizes.
                if np.len() >= 3 && degree[np[j] as usize] >= 2 && rng.chance(0.5) {
                    let module = np.swap_remove(j);
                    degree[module as usize] -= 1;
                    Edit::PinChange {
                        net,
                        module,
                        add: false,
                    }
                } else {
                    let module = loop {
                        let c = rng.range(0, m) as u32;
                        if !np.contains(&c) {
                            break c;
                        }
                    };
                    np.push(module);
                    degree[module as usize] += 1;
                    Edit::PinChange {
                        net,
                        module,
                        add: true,
                    }
                }
            }
        };
        ops.push(Op::Edit(edit));
        if rng.chance(QUERY_P) {
            ops.push(Op::Query);
        }
    }
    ops
}

pub fn engine() -> PartitionEngine {
    PartitionEngine::new(
        EngineConfig::new()
            .partition(
                PartitionConfig::new()
                    .starts(STARTS)
                    .seed(PARTITION_SEED)
                    .threads(1),
            )
            .damage_permille(DAMAGE_PERMILLE),
    )
}

/// What the server must reply to one scripted request.
pub enum Expect {
    Edit {
        cut: u64,
        fp: u64,
        new_id: Option<u32>,
        repair: &'static str,
        damaged: usize,
    },
    Query {
        cut: u64,
        modules: usize,
        nets: usize,
    },
}

/// The engine state right after `partition`.
pub struct Loaded {
    pub cut: u64,
    pub fp: u64,
}

/// The in-process replay of one session.
pub struct Reference {
    pub loaded: Loaded,
    pub replies: Vec<Expect>,
    pub stats: EngineStats,
    /// The paper's quotient objective on the state after the script: cut
    /// ÷ the smaller side's live modules. The server's last reply matched
    /// this state's fingerprint.
    pub final_quotient: f64,
}

fn quotient(engine: &PartitionEngine, modules: usize) -> f64 {
    let left = (0..modules as u32)
        .filter(|&m| engine.side_of(m) == Some(Side::Left))
        .count();
    engine.cut() as f64 / left.min(modules - left) as f64
}

/// Replays `ops` on `h` in-process and records the reply each request
/// must get, with spans in `scope` around the netlist build, the engine
/// load, and per edit: the same structural edit on a standalone
/// `DynamicNetlist`, the engine's `apply`, and a separate `fingerprint`
/// call (the cost `apply` pays inside), which must agree with `apply`'s.
pub fn replay(h: &Hypergraph, ops: &[Op], scope: &Scope) -> Result<Reference, String> {
    let mut standalone = timed(scope, "netlist.build", || {
        DynamicNetlist::from_hypergraph(h)
    })
    .map_err(|e| e.to_string())?;
    let mut e = engine();
    let d = timed(scope, "engine.load", || e.load(h)).map_err(|e| e.to_string())?;
    let loaded = Loaded {
        cut: d.cut_after,
        fp: d.fingerprint,
    };
    let mut replies = Vec::with_capacity(ops.len());
    for op in ops {
        let Op::Edit(edit) = op else {
            let nl = e.netlist().ok_or("engine not loaded")?;
            replies.push(Expect::Query {
                cut: e.cut(),
                modules: nl.num_live_modules(),
                nets: nl.num_live_nets(),
            });
            continue;
        };
        timed(scope, "netlist.edit", || match edit {
            Edit::AddNet { pins, weight } => standalone.add_net(pins, *weight).map(|_| ()),
            Edit::RemoveNet { net } => standalone.remove_net(*net),
            Edit::PinChange { net, module, add } => standalone.pin_change(*net, *module, *add),
            other => unreachable!("the script never emits {other:?}"),
        })
        .map_err(|e| format!("standalone netlist refused {edit:?}: {e:?}"))?;
        let d = timed(scope, "engine.apply", || e.apply(edit))
            .map_err(|err| format!("engine refused {edit:?}: {err}"))?;
        let fp = timed(scope, "engine.fingerprint", || e.fingerprint());
        if fp != d.fingerprint {
            return Err("fingerprint() disagrees with apply()".to_string());
        }
        scope.counter("engine.damaged_modules", d.damaged_modules as u64);
        replies.push(Expect::Edit {
            cut: d.cut_after,
            fp: d.fingerprint,
            new_id: d.new_id,
            repair: d.repair.as_str(),
            damaged: d.damaged_modules,
        });
    }
    Ok(Reference {
        loaded,
        replies,
        stats: e.stats(),
        final_quotient: quotient(&e, h.num_vertices()),
    })
}

/// A live `fhp serve` process on pipes.
pub struct Session<'a> {
    fhp: &'a Program,
    child: std::process::Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl<'a> Session<'a> {
    pub fn spawn(fhp: &'a Program) -> Result<Self, String> {
        let damage = DAMAGE_PERMILLE.to_string();
        let mut child = fhp
            .command(&["serve", "--threads", "1", "--damage-permille", &damage])
            .and_then(|mut c| {
                c.stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit())
                    .spawn()
            })
            .map_err(|e| format!("spawn {}: {e}", fhp.display()))?;
        let stdin = child.stdin.take().ok_or("no stdin pipe")?;
        let stdout = BufReader::new(child.stdout.take().ok_or("no stdout pipe")?);
        Ok(Self {
            fhp,
            child,
            stdin,
            stdout,
        })
    }

    /// Sends one request line and waits for its reply.
    pub fn request(&mut self, line: &str) -> Result<(Json, Duration), String> {
        let started = Instant::now();
        self.stdin
            .write_all(line.as_bytes())
            .and_then(|()| self.stdin.write_all(b"\n"))
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("write request: {e}"))?;
        let mut reply = String::new();
        let n = self
            .stdout
            .read_line(&mut reply)
            .map_err(|e| format!("read reply: {e}"))?;
        let took = started.elapsed();
        if n == 0 {
            return Err("server closed its output".to_string());
        }
        let v = json::parse(reply.trim_end()).map_err(|e| format!("reply is not JSON: {e}"))?;
        match v.get("ok") {
            Some(Json::Bool(true)) => Ok((v, took)),
            _ => Err(format!("error reply: {}", reply.trim_end())),
        }
    }

    /// Sends `shutdown`, closes the pipes and reaps the process.
    pub fn close(mut self) -> Result<proc::Exit, String> {
        let bye = self.request("{\"id\":0,\"verb\":\"shutdown\"}");
        drop(self.stdin);
        drop(self.stdout);
        let exit = self
            .fhp
            .reap(self.child)
            .map_err(|e| format!("reap: {e}"))?;
        bye?;
        if !exit.success {
            return Err("serve exited unsuccessfully".to_string());
        }
        Ok(exit)
    }
}

fn num(v: &Json, key: &str) -> Option<u64> {
    match v.get(key) {
        Some(Json::Num(n)) if n.fract() == 0.0 && *n >= 0.0 => Some(*n as u64),
        _ => None,
    }
}

fn fp(v: &Json) -> Option<u64> {
    match v.get("fp") {
        Some(Json::Str(s)) => s.parse().ok(),
        _ => None,
    }
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {want:?}"))
    }
}

/// Checks a `partition` reply against the in-process load.
pub fn check_partition(v: &Json, h: &Hypergraph, want: &Loaded) -> Result<(), String> {
    expect_eq("modules", num(v, "modules"), Some(h.num_vertices() as u64))?;
    expect_eq("nets", num(v, "nets"), Some(h.num_edges() as u64))?;
    expect_eq("cut", num(v, "cut"), Some(want.cut))?;
    expect_eq("fp", fp(v), Some(want.fp))
}

fn check_reply(v: &Json, id: usize, want: &Expect) -> Result<(), String> {
    expect_eq("id", num(v, "id"), Some(id as u64))?;
    match want {
        Expect::Edit {
            cut,
            fp: want_fp,
            new_id,
            repair,
            damaged,
        } => {
            expect_eq("cut", num(v, "cut"), Some(*cut))?;
            expect_eq("fp", fp(v), Some(*want_fp))?;
            let got_id = match v.get("new_id") {
                Some(Json::Null) => Some(None),
                Some(_) => num(v, "new_id").map(|n| u32::try_from(n).ok()),
                None => None,
            };
            expect_eq("new_id", got_id, Some(*new_id))?;
            expect_eq(
                "repair",
                v.get("repair"),
                Some(&Json::Str(repair.to_string())),
            )?;
            expect_eq("damaged", num(v, "damaged"), Some(*damaged as u64))
        }
        Expect::Query { cut, modules, nets } => {
            expect_eq("cut", num(v, "cut"), Some(*cut))?;
            expect_eq("modules", num(v, "modules"), Some(*modules as u64))?;
            expect_eq("nets", num(v, "nets"), Some(*nets as u64))
        }
    }
}

/// Client-side timings of one scripted session.
#[derive(Default)]
pub struct SessionTimes {
    pub setup: Duration,
    /// Per edit request, write to reply, in script order.
    pub edits: Vec<Duration>,
    pub queries: Vec<Duration>,
    /// First script request written to last script reply read.
    pub script: Duration,
    /// Spawn to exit.
    pub wall: Duration,
    pub peak_rss_mb: f64,
    /// `serve.lat.edit` of the final `stats` reply: (count, total_ns).
    pub dispatch: (u64, u64),
    /// Bytes of the edit request lines.
    pub edit_bytes: usize,
}

/// Loads `x`, runs its whole script and the final `stats`, checking
/// every reply against its replay; checks are counted into `out`. The
/// server is shut down and reaped whether or not the session succeeded.
pub fn session(fhp: &Program, x: &Scripted, out: &mut Outcome) -> Result<SessionTimes, String> {
    let started = Instant::now();
    let mut s = Session::spawn(fhp)?;
    let body = script_session(&mut s, started, x, out);
    let closed = s.close();
    let mut times = body?;
    times.peak_rss_mb = closed?.peak_rss_mb;
    times.wall = started.elapsed();
    Ok(times)
}

fn script_session(
    s: &mut Session,
    started: Instant,
    x: &Scripted,
    out: &mut Outcome,
) -> Result<SessionTimes, String> {
    let mut times = SessionTimes::default();
    let (reply, _) = s.request(&x.request)?;
    times.setup = started.elapsed();
    out.check(
        "partition reply",
        check_partition(&reply, x.h, &x.reference.loaded),
    );
    let script_started = Instant::now();
    for (i, (op, want)) in x.ops.iter().zip(&x.reference.replies).enumerate() {
        let line = op.request(i + 1);
        let result = s.request(&line).and_then(|(v, took)| {
            match op {
                Op::Edit(_) => {
                    times.edits.push(took);
                    times.edit_bytes += line.len();
                }
                Op::Query => times.queries.push(took),
            }
            check_reply(&v, i + 1, want)
        });
        out.check(&format!("request {}", i + 1), result);
    }
    times.script = script_started.elapsed();
    let stats = s
        .request("{\"id\":0,\"verb\":\"stats\"}")
        .and_then(|(v, _)| {
            let st = &x.reference.stats;
            expect_eq("edits", num(&v, "edits"), Some(st.edits))?;
            expect_eq(
                "incremental_hits",
                num(&v, "incremental_hits"),
                Some(st.incremental_hits),
            )?;
            expect_eq(
                "full_recomputes",
                num(&v, "full_recomputes"),
                Some(st.full_recomputes),
            )?;
            let lat = v
                .get("lat")
                .and_then(|l| l.get("serve.lat.edit"))
                .ok_or("stats reply has no serve.lat.edit")?;
            times.dispatch = (
                num(lat, "count").unwrap_or(0),
                num(lat, "total_ns").unwrap_or(0),
            );
            Ok(())
        });
    out.check("stats reply", stats);
    Ok(times)
}

/// One scripted instance: its script, the `partition` request that
/// loads it, and the in-process replay its replies are checked against.
pub struct Scripted<'a> {
    pub h: &'a Hypergraph,
    pub ops: Vec<Op>,
    pub request: String,
    pub reference: Reference,
}

impl<'a> Scripted<'a> {
    /// Instance `i` of a run seeded with `seed`, replayed into `scope`.
    pub fn new(h: &'a Hypergraph, seed: u64, i: usize, scope: &Scope) -> Result<Self, String> {
        let ops = script(h, instance_seed(seed, i), i.is_multiple_of(HUGE_EVERY));
        let reference = replay(h, &ops, scope)?;
        Ok(Self {
            h,
            ops,
            request: partition_request(h),
            reference,
        })
    }
}

/// Untraced measurement: scripted sessions take the instances in turn
/// until `seconds` have passed and every instance ran its script once.
/// Set-up and peak RSS are medians over the sessions; quality over the
/// instances' states after their scripts; the edit latency is the median
/// over every scripted edit.
pub fn measure(
    fhp: &Program,
    instances: &[Hypergraph],
    seed: u64,
    seconds: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let scripted = instances
        .iter()
        .enumerate()
        .map(|(i, h)| Scripted::new(h, seed, i, &Scope::detached(0, None)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut edits = Vec::new();
    let mut setups = Vec::new();
    let mut rss = Vec::new();
    let mut sessions = 0;
    let started = Instant::now();
    while sessions < scripted.len() || started.elapsed() < Duration::from_secs(seconds) {
        match session(fhp, &scripted[sessions % scripted.len()], out) {
            Ok(t) => {
                sessions += 1;
                setups.push(t.setup.as_secs_f64());
                rss.push(t.peak_rss_mb);
                edits.extend(t.edits.iter().map(|&d| ms(d)));
            }
            Err(e) => {
                out.check("scripted session", Err(e));
                break;
            }
        }
    }
    let quotients: Vec<f64> = scripted
        .iter()
        .map(|x| x.reference.final_quotient)
        .collect();
    eprintln!(
        "perfbench: {sessions} scripted sessions, {} edits, p99 {:.3} ms; quotient after each script: {quotients:.4?}",
        edits.len(),
        percentile(&edits, 0.99)
    );
    out.metric("op_ms.p50", median(&edits), "ms");
    out.metric("quotient_cut", quotient_cut(&quotients), "ratio");
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", median(&rss), "MiB");
    Ok(())
}
