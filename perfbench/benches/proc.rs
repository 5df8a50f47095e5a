//! Child processes timed from spawn to exit, with the peak resident set
//! the kernel recorded for each one.
//!
//! A process's peak resident set (`ru_maxrss`) takes in, at `exec`, the
//! peak of the address space that `exec` replaced. A child spawned
//! straight from the benchmark shares the benchmark's address space up
//! to its `exec` (std spawns with `CLONE_VM` where it can), so its figure
//! would read the benchmark's own peak, which holds every instance and
//! replay. So each program run is started through a fresh copy of this
//! executable (`WRAP_FLAG`) that has loaded nothing: it spawns the
//! program on the same stdio, reaps it with `wait4`, writes the peak to a
//! file and exits with the program's status. The wrapper's own `exec`
//! and spawn fall inside every timed wall.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// The first argument that runs this executable as the wrapper:
/// `WRAP_FLAG <peak-rss file> <program> <args>…`.
pub const WRAP_FLAG: &str = "--wrap-peak-rss";

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen
/// `long`s of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// How a reaped child ended.
pub struct Exit {
    /// Exited normally with status 0.
    pub success: bool,
    /// Peak resident set of the program, in MiB.
    pub peak_rss_mb: f64,
}

/// Waits for `child` and collects its resource usage. Consumes the
/// handle: the process is reaped here, so `Child::wait` must not run.
fn reap_wait4(child: Child) -> std::io::Result<Exit> {
    let pid = i32::try_from(child.id()).map_err(std::io::Error::other)?;
    let mut status = 0i32;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (the handle is consumed
        // and never waited on elsewhere), and both out-pointers refer to
        // live, writable locals whose layout matches the kernel's.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    drop(child);
    let exited = status & 0x7f == 0;
    let code = (status >> 8) & 0xff;
    Ok(Exit {
        success: exited && code == 0,
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

/// The wrapper's `main`: runs `program args…` on this process's stdio,
/// writes its peak RSS in MiB to the file and exits 0 only if it did.
pub fn wrap(mut args: impl Iterator<Item = String>) -> ExitCode {
    let (Some(rss_file), Some(program)) = (args.next(), args.next()) else {
        eprintln!("perfbench: {WRAP_FLAG} <rss file> <program> [args…]");
        return ExitCode::from(2);
    };
    let exit = Command::new(&program)
        .args(args)
        .spawn()
        .and_then(reap_wait4)
        .and_then(|exit| std::fs::write(&rss_file, exit.peak_rss_mb.to_string()).map(|()| exit));
    match exit {
        Ok(exit) if exit.success => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {program}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The program under test, started through the wrapper.
pub struct Program {
    path: PathBuf,
    /// Where the wrapper leaves the peak RSS of the run in flight.
    rss_file: PathBuf,
}

impl Program {
    pub fn new(path: PathBuf, work: &Path) -> Self {
        Self {
            path,
            rss_file: work.join("peak-rss"),
        }
    }

    /// A command that runs the program with `args` through the wrapper.
    /// A figure left by an earlier run is removed first.
    pub fn command(&self, args: &[&str]) -> std::io::Result<Command> {
        match std::fs::remove_file(&self.rss_file) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        let mut c = Command::new(std::env::current_exe()?);
        c.arg(WRAP_FLAG)
            .arg(&self.rss_file)
            .arg(&self.path)
            .args(args);
        Ok(c)
    }

    /// Reaps a child started from `command`.
    pub fn reap(&self, mut child: Child) -> std::io::Result<Exit> {
        let success = child.wait()?.success();
        let peak_rss_mb = if success {
            std::fs::read_to_string(&self.rss_file)?
                .parse()
                .map_err(std::io::Error::other)?
        } else {
            0.0
        };
        Ok(Exit {
            success,
            peak_rss_mb,
        })
    }

    /// Runs the program with `args` to completion, capturing stdout
    /// (stderr passes through), and times it from spawn to exit.
    pub fn run(&self, args: &[&str]) -> std::io::Result<Finished> {
        let started = Instant::now();
        let mut child = self
            .command(args)?
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = Vec::new();
        if let Some(mut out) = child.stdout.take() {
            out.read_to_end(&mut stdout)?;
        }
        let exit = self.reap(child)?;
        Ok(Finished {
            exit,
            wall: started.elapsed(),
            stdout,
        })
    }

    pub fn display(&self) -> std::path::Display<'_> {
        self.path.display()
    }
}

/// One finished batch process.
pub struct Finished {
    pub exit: Exit,
    /// Spawn to exit.
    pub wall: Duration,
    pub stdout: Vec<u8>,
}
