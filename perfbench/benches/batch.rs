//! The batch workloads, `flat` and `vcycle`: one `fhp` process at a time
//! on 10^5-signal instances, each report checked against the instance.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fhp_hypergraph::{hgr, Hypergraph};

use crate::proc::{self, Program};
use crate::stats::{median, ms, quotient_cut, Outcome};

/// Signals of every batch instance (modules = 0.6 × signals).
pub const SIGNALS: usize = 100_000;

/// The flags every batch run passes; `vcycle` adds `--multilevel`.
pub const FLAGS: [&str; 6] = ["-t", "10", "-s", "8", "--threads", "1"];

/// A generated instance, written where the program can read it.
pub struct Instance {
    pub path: PathBuf,
    pub h: Hypergraph,
}

/// The seed of instance `i` of a run seeded with `seed`.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(100).wrapping_add(i as u64)
}

/// Instance `i` of `seed` at `signals`.
pub fn generate(signals: usize, seed: u64, i: usize) -> Result<Hypergraph, String> {
    fhp_gen::scaling_instance(signals, instance_seed(seed, i)).map_err(|e| e.to_string())
}

/// Generates instance `i` of `seed` at `signals` and writes it under `dir`.
pub fn instance(dir: &Path, signals: usize, seed: u64, i: usize) -> Result<Instance, String> {
    let h = generate(signals, seed, i)?;
    let path = dir.join(format!("n{signals}-s{}.hgr", instance_seed(seed, i)));
    std::fs::write(&path, hgr::write_hgr(&h)).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Instance { path, h })
}

/// Loads `inst` as `fhp` does before it partitions: reads the file and
/// runs `parse_hgr`. Returns the time taken, after checking that the
/// parse gives back the generated instance.
pub fn load(inst: &Instance) -> Result<Duration, String> {
    let started = Instant::now();
    let text = std::fs::read_to_string(&inst.path).map_err(|e| e.to_string())?;
    let h = hgr::parse_hgr(&text).map_err(|e| e.to_string())?;
    let took = started.elapsed();
    if h != inst.h {
        return Err("parse_hgr did not give back the written instance".to_string());
    }
    Ok(took)
}

/// The partition a report describes, after checking it against the
/// instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checked {
    pub cut: usize,
    pub left: usize,
    pub right: usize,
}

impl Checked {
    /// The paper's quotient objective: cut ÷ the smaller side's modules.
    pub fn quotient(&self) -> f64 {
        self.cut as f64 / self.left.min(self.right) as f64
    }
}

/// Checks a full `fhp` report: every module appears exactly once across
/// the `left :` / `right:` lists, and the printed `cut size` equals the
/// cut recounted from the instance.
pub fn check_report(report: &str, h: &Hypergraph) -> Result<Checked, String> {
    let field = |prefix: &str| {
        report
            .lines()
            .find_map(|l| l.strip_prefix(prefix))
            .ok_or_else(|| format!("report has no `{prefix}` line"))
    };
    let printed: usize = field("cut size ")?
        .split_whitespace()
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or("unreadable `cut size`")?;
    let mut side = vec![None; h.num_vertices()];
    for (prefix, s) in [("left : ", 0u8), ("right: ", 1u8)] {
        for name in field(prefix)?.split_whitespace() {
            let m: usize = name
                .strip_prefix('m')
                .and_then(|i| i.parse().ok())
                .filter(|&i| (1..=h.num_vertices()).contains(&i))
                .ok_or_else(|| format!("unknown module `{name}`"))?;
            if side[m - 1].replace(s).is_some() {
                return Err(format!("module `{name}` listed twice"));
            }
        }
    }
    let side: Vec<u8> = side
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.ok_or_else(|| format!("module m{} missing", i + 1)))
        .collect::<Result<_, _>>()?;
    let cut = h
        .edges()
        .filter(|&e| {
            let pins = h.pins(e);
            pins.iter()
                .any(|p| side[p.index()] != side[pins[0].index()])
        })
        .count();
    if cut != printed {
        return Err(format!("printed cut {printed}, recounted {cut}"));
    }
    let left = side.iter().filter(|&&s| s == 0).count();
    let right = side.len() - left;
    if left == 0 || right == 0 {
        return Err("one side is empty".to_string());
    }
    Ok(Checked { cut, left, right })
}

/// One `fhp` batch run on `inst`, checked. Returns the wall, the output
/// and the peak RSS, or why the run or its check failed.
pub fn run_once(
    fhp: &Program,
    inst: &Instance,
    multilevel: bool,
) -> Result<(proc::Finished, Checked), String> {
    let path = inst.path.to_str().ok_or("instance path is not UTF-8")?;
    let mut args = vec![path];
    args.extend(FLAGS);
    if multilevel {
        args.push("--multilevel");
    }
    let done = fhp
        .run(&args)
        .map_err(|e| format!("spawn {}: {e}", fhp.display()))?;
    if !done.exit.success {
        return Err("fhp exited unsuccessfully".to_string());
    }
    let text = std::str::from_utf8(&done.stdout).map_err(|e| e.to_string())?;
    let checked = check_report(text, &inst.h)?;
    Ok((done, checked))
}

/// Untraced measurement: runs `fhp` round-robin over `instances` until
/// `seconds` have passed and every instance ran at least once. Before
/// each run, a load of the run's instance is timed for `setup_s`, so the
/// loads spread over the run as the process runs do.
pub fn measure(
    fhp: &Program,
    instances: &[Instance],
    multilevel: bool,
    seconds: u64,
    out: &mut Outcome,
) {
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut rss = Vec::new();
    // The partition each instance returned first; later runs must agree.
    let mut first: Vec<Option<Checked>> = vec![None; instances.len()];
    let started = Instant::now();
    let mut i = 0;
    while i < instances.len() || started.elapsed() < Duration::from_secs(seconds) {
        let k = i % instances.len();
        let loaded = load(&instances[k]).map(|took| setups.push(took.as_secs_f64()));
        out.check(&format!("load {i} (instance {k})"), loaded);
        let result = run_once(fhp, &instances[k], multilevel).and_then(|(done, checked)| {
            walls.push(ms(done.wall));
            rss.push(done.exit.peak_rss_mb);
            match &first[k] {
                Some(c) if *c != checked => Err(format!(
                    "instance {k} changed partition: {c:?} then {checked:?}"
                )),
                Some(_) => Ok(()),
                None => {
                    first[k] = Some(checked);
                    Ok(())
                }
            }
        });
        out.check(&format!("batch run {i} (instance {k})"), result);
        i += 1;
    }
    let quotients: Vec<f64> = first.iter().flatten().map(Checked::quotient).collect();
    out.metric("op_ms.p50", median(&walls), "ms");
    eprintln!("perfbench: quotient per instance: {quotients:.4?}");
    out.metric("quotient_cut", quotient_cut(&quotients), "ratio");
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", median(&rss), "MiB");
}
