//! `ucp-perfbench`: the repository's seeded benchmark (see README.md).
//!
//! ```text
//! ucp-perfbench --workload <solve-hard|minimize-pla|serve|serve-journaled>
//!               --seed <n> --seconds <s> --trace <0|1>
//!               [--ucp <path to the ucp binary>] [--scratch <dir>]
//! ```
//!
//! Prints a human-readable block and, as its last line, one JSON object
//! `{"correct","attempted","failed","metrics"}`. Every workload prints
//! the same metrics: with `--trace 0` the end-to-end metrics of
//! BENCHMARK.json, with `--trace 1` its per-layer metrics (the same
//! calls with spans around them, then layer probes).

mod batch;
mod probes;
mod report;
mod serve;
mod stats;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Seconds of set-up repeats before a run's measurement starts, and
/// between two rounds of a batch workload (see [`SetupTimes`]).
pub const SETUP_FIRST_S: f64 = 1.0;
pub const SETUP_SLICE_S: f64 = 0.1;

/// Everything a workload needs from the command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub ucp: PathBuf,
    pub scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let need = |flag: &str| value(flag).ok_or_else(|| format!("missing {flag} <value>"));
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "--seconds needs a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: need("--workload")?,
        seed: need("--seed")?
            .parse()
            .map_err(|_| "--seed needs a non-negative integer".to_string())?,
        seconds,
        trace: match need("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace needs 0 or 1".into()),
        },
        ucp: value("--ucp").map_or_else(|| PathBuf::from("target/release/ucp"), PathBuf::from),
        scratch: PathBuf::from(
            value("--scratch").unwrap_or_else(|| "perfbench/target/perfbench-scratch".into()),
        ),
    })
}

/// A per-input seed derived from the run's seed, so inputs are fixed by
/// `--seed` alone.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    ucp_core::splitmix64(ucp_core::splitmix64(seed) ^ index)
}

/// Peak resident set (`VmHWM`) of process `pid` in MB, from procfs.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Seconds [`reference_kernel`] takes on the 2-core VM the benchmark
/// was tuned on in a fast stretch (1.88-1.97 ms at the median of three
/// runs). End-to-end times are scaled to this speed (see [`HostSpeed`]).
pub const REFERENCE_S: f64 = 0.002;

/// A fixed piece of work that uses none of the repository's code: sorts
/// (branches), a chain of dependent reads over a table (load latency)
/// and a floating-point recurrence. Its buffers are 64 KiB each, small
/// enough that the memory they leave with the allocator does not move
/// the batch workloads' `peak_rss_mb` (4 MiB buffers added 3 MB to
/// `solve-hard`'s).
pub fn reference_kernel() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;
    for _ in 0..8 {
        let mut keys: Vec<u64> = (0..1 << 13).map(|_| next()).collect();
        keys.sort_unstable();
        acc ^= keys[keys.len() / 2];
    }
    let table: Vec<u32> = (0..1u32 << 14)
        .map(|_| next() as u32 & ((1 << 14) - 1))
        .collect();
    let mut at = 0u32;
    for _ in 0..1 << 19 {
        at = table[at as usize];
    }
    let mut f = 1.0f64;
    for i in 0..1 << 18 {
        f = f * 0.999_999 + f64::from(i).sqrt();
    }
    std::hint::black_box(acc ^ u64::from(at) ^ f.to_bits())
}

/// The host's speed while a run measures, read from [`reference_kernel`].
///
/// The VM the benchmark was built on ran the same work up to a third
/// slower for minutes at a time, and CPU time slowed with it: `solve-hard`
/// rounds of ten seeds in a row took 3.96-5.63 s. A time measured next
/// to runs of the reference kernel, scaled by [`REFERENCE_S`] over the
/// kernel's own time, is the time the work would take at the reference
/// speed: a change to the program moves it, a change of the host's pace
/// moves it less. The raw times are printed as details.
#[derive(Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Runs the reference kernel back to back on `threads` threads at
    /// once for `budget_s` seconds (at least three times on each) and
    /// returns the median time of these runs. A workload that keeps
    /// several cores busy is scaled by a reference that does too: when
    /// the host gives a core less time, the kernel slows on that core
    /// alone.
    pub fn measure(&mut self, budget_s: f64, threads: usize) -> f64 {
        let start = Instant::now();
        let times: Vec<f64> = std::thread::scope(|s| {
            let runs: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let mut times = Vec::new();
                        while times.len() < 3 || start.elapsed().as_secs_f64() < budget_s {
                            let t = Instant::now();
                            reference_kernel();
                            times.push(t.elapsed().as_secs_f64());
                        }
                        times
                    })
                })
                .collect();
            runs.into_iter()
                .flat_map(|r| r.join().expect("the reference kernel does not panic"))
                .collect()
        });
        self.samples.extend_from_slice(&times);
        stats::median(&times)
    }

    /// The median time of every reference run so far.
    pub fn median(&self) -> f64 {
        stats::median(&self.samples)
    }
}

/// `sysconf(_SC_CLK_TCK)`, 100 on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds process `pid` has used, from procfs.
pub fn cpu_seconds(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of them, in clock ticks.
    let ticks: f64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| {
            rest.split_whitespace()
                .skip(11)
                .take(2)
                .filter_map(|t| t.parse::<f64>().ok())
                .sum()
        })
        .unwrap_or(f64::NAN);
    ticks / CLOCK_TICKS_PER_S
}

/// Resets this process's peak resident set to its current resident set
/// (Linux `/proc/self/clear_refs`, value 5), so that
/// `peak_rss_mb("self")` reads the peak since the reset.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The fastest set-up of one run, which is what `setup_s` reports.
///
/// A set-up of a millisecond or less is swayed by the load of a shared
/// host. On the 2-core VM the benchmark was built on, every set-up ran
/// up to half again slower for stretches of tens of milliseconds up to
/// whole runs. Over eight seeds the median set-up of a run spread 26-31%
/// on the batch workloads, the fastest 7-13%. Set-up is repeated back
/// to back for [`SETUP_FIRST_S`] before the measurement and, where a
/// workload runs in rounds, for [`SETUP_SLICE_S`] between rounds, so
/// the fastest is drawn from the whole run.
pub struct SetupTimes {
    fastest: f64,
}

impl Default for SetupTimes {
    fn default() -> Self {
        SetupTimes {
            fastest: f64::INFINITY,
        }
    }
}

impl SetupTimes {
    /// Repeats `build` until `budget_s` seconds are spent (at least
    /// once) and returns the last result. `discard` tears down the
    /// others.
    pub fn sample<T>(
        &mut self,
        budget_s: f64,
        mut build: impl FnMut() -> T,
        mut discard: impl FnMut(T),
    ) -> T {
        let start = Instant::now();
        let mut last = None;
        while last.is_none() || start.elapsed().as_secs_f64() < budget_s {
            if let Some(prev) = last.take() {
                discard(prev);
            }
            let t = Instant::now();
            last = Some(build());
            self.fastest = self.fastest.min(t.elapsed().as_secs_f64());
        }
        last.expect("at least one set-up")
    }

    pub fn fastest(&self) -> f64 {
        self.fastest
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let mut tracer = Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "solve-hard" => batch::solve_hard(&args, &mut tracer, &mut report),
        "minimize-pla" => batch::minimize_pla(&args, &mut tracer, &mut report),
        "serve" => serve::run(&args, false, &mut tracer, &mut report),
        "serve-journaled" => serve::run(&args, true, &mut tracer, &mut report),
        other => Err(format!("unknown workload {other:?}")),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        return ExitCode::from(1);
    }
    if tracer.is_on() {
        let path = args
            .scratch
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&args.scratch)
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
        {
            Ok(()) => report.note(format!("spans written to {}", path.display())),
            Err(e) => report.note(format!("could not write spans: {e}")),
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    print!(
        "{}",
        report.render(&format!(
            "perfbench workload={} seed={} seconds={} trace={} nproc={nproc}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ))
    );
    ExitCode::SUCCESS
}
