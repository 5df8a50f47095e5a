//! The fhp benchmark harness. `perfbench/run.py` builds the program and
//! this bench target, then runs it as:
//!
//! ```text
//! perfbench --workload <flat|vcycle|serve-eco> --seed <n> --seconds <s>
//!           --trace <0|1> --fhp <bin> --trace-check <bin> --work <dir>
//! ```
//!
//! With `--trace 0` it measures the workload with the release `fhp`
//! binary and prints the end-to-end metrics; with `--trace 1` it runs the
//! layer trace (see `layers`) and prints the per-layer metrics. The last
//! stdout line is the result object; the exit code is non-zero when any
//! output check failed. See `perfbench/README.md` for every metric.
//!
//! Started as `perfbench --wrap-peak-rss …`, it is instead the wrapper
//! that runs one `fhp` process and records its peak RSS (see `proc`).

mod batch;
mod layers;
mod proc;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::Outcome;

/// Instances per batch run: enough that one instance's quirks (run time,
/// a degenerate V-cycle split) do not set the run's median.
const FLAT_INSTANCES: usize = 12;
const VCYCLE_INSTANCES: usize = 9;

#[derive(Clone, Copy)]
enum Workload {
    Flat,
    Vcycle,
    ServeEco,
}

struct Args {
    workload: Workload,
    /// The name as given, for file names.
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    fhp: proc::Program,
    trace_check: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut get = |name: &str| -> Result<String, String> {
        match args.next() {
            Some(flag) if flag == name => args.next().ok_or(format!("{name} expects a value")),
            other => Err(format!("expected {name}, got {other:?}")),
        }
    };
    let name = get("--workload")?;
    let workload = match name.as_str() {
        "flat" => Workload::Flat,
        "vcycle" => Workload::Vcycle,
        "serve-eco" => Workload::ServeEco,
        other => {
            return Err(format!(
                "unknown workload `{other}` (flat|vcycle|serve-eco)"
            ))
        }
    };
    let seed = get("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let fhp = PathBuf::from(get("--fhp")?);
    let trace_check = get("--trace-check")?.into();
    let work = PathBuf::from(get("--work")?);
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
        fhp: proc::Program::new(fhp, &work),
        trace_check,
        work,
    })
}

fn measure(a: &Args, out: &mut Outcome) -> Result<(), String> {
    let batch = |n: usize, multilevel: bool, out: &mut Outcome| -> Result<(), String> {
        let instances = (0..n)
            .map(|i| batch::instance(&a.work, batch::SIGNALS, a.seed, i))
            .collect::<Result<Vec<_>, _>>()?;
        batch::measure(&a.fhp, &instances, multilevel, a.seconds, out);
        Ok(())
    };
    match a.workload {
        Workload::Flat => batch(FLAT_INSTANCES, false, out),
        Workload::Vcycle => batch(VCYCLE_INSTANCES, true, out),
        Workload::ServeEco => {
            let instances = (0..serve::SCRIPTED)
                .map(|i| batch::generate(serve::SIGNALS, a.seed, i))
                .collect::<Result<Vec<_>, _>>()?;
            serve::measure(&a.fhp, &instances, a.seed, a.seconds, out)
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    if args.next_if(|a| a == proc::WRAP_FLAG).is_some() {
        return proc::wrap(args);
    }
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&a.work) {
        eprintln!("perfbench: {}: {e}", a.work.display());
        return ExitCode::FAILURE;
    }
    let mut out = Outcome::default();
    if a.trace {
        let trace_path = a.work.join(format!("trace-{}-{}.ndjson", a.name, a.seed));
        layers::run(
            &a.fhp,
            &a.trace_check,
            &a.work,
            a.seed,
            &trace_path,
            &mut out,
        );
    } else if let Err(e) = measure(&a, &mut out) {
        out.check("workload", Err(e));
    }
    if a.trace {
        let frac = out.failed as f64 / out.attempted.max(1) as f64;
        out.metric("failed_frac", frac, "ratio");
    }
    println!("{}", out.to_json());
    if out.failed == 0 && out.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
