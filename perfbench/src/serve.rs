//! The two service workloads: `ucp serve --workers 2`, without and with
//! `--journal`, driven over HTTP by a one-thread generator.
//!
//! The server runs as its own process (the repository's `ucp` binary),
//! so the generator and the server share nothing but the socket. Jobs
//! are seeded `ucp-api/2` bodies at the Fast preset.
//!
//! The run has three phases: an open-loop `low` rate, an open-loop
//! `high` rate, then closed-loop rounds. The open-loop jobs are small
//! (cycles and small random matrices) and each solves in under a
//! millisecond, so HTTP parse, wire decode, admission, the engine queue,
//! polling and — with `--journal` — the fsynced appends dominate.
//! Open-loop latency runs from the moment a job was due to be submitted
//! until the generator first observes it terminal, so a stalled
//! generator or server charges every job queued behind the stall.
//!
//! A closed-loop round pushes the same [`ROUND_JOBS`] larger jobs (about
//! a millisecond of solving each) through a fixed window of jobs in
//! flight and waits for the last; rounds repeat until the run's time is
//! spent, and `wall_s` is the median round, as on the batch workloads.
//! (Rounds of the small jobs are dominated by wake-ups and system calls,
//! whose cost on a shared virtual machine drifts with the host: their
//! median spread 28% over ten seeds.) The traced run alternates
//! untraced and traced rounds.

use crate::probes;
use crate::report::Report;
use crate::stats::{median, quantile, samples_for};
use crate::trace::Tracer;
use crate::{
    cpu_seconds, derive_seed, peak_rss_mb, Args, HostSpeed, SetupTimes, REFERENCE_S, SETUP_FIRST_S,
};
use cover::CoverMatrix;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ucp_core::wire::{JobResultDto, JobSpec, JobState, JobStatusDto, SubmitBody};
use ucp_core::{Preset, Scg, ScgOutcome};
use ucp_durability::read_journal;
use ucp_telemetry::PhaseTimes;
use workloads::{random_ucp, CostModel, RandomUcpConfig};

/// Engine workers of the served process (`ucp serve --workers 2`).
const SERVER_WORKERS: usize = 2;
/// Distinct open-loop bodies; open-loop jobs cycle through them.
const POOL: usize = 48;
/// Share of `--seconds` given to the low and high open-loop phases and
/// to the closed-loop rounds.
const PHASE_SHARES: [f64; 3] = [0.25, 0.25, 0.50];
/// Jobs kept in flight by a closed-loop round.
const WINDOW: usize = 8;
/// Jobs of one closed-loop round, each a distinct body, in the same
/// order every round. How long a body takes to solve depends on its
/// contents; over 48 bodies cycled five times the median round moved
/// 20% between seeds, so each job of a round has a body of its own.
const ROUND_JOBS: usize = 240;
/// Time between two closed-loop rounds, spent running the reference
/// kernel (see [`HostSpeed`]) while the server idles. At `--seconds 30` it keeps
/// the jobs of a run (about 37 000 at today's speed, under 95 000
/// however fast the server gets) below the 100 000 terminal jobs the
/// server retains: past that every submit scans and sorts the whole job
/// table (see README.md), and rounds would slow down from a point of
/// the run that moves with the server's speed.
const ROUND_PAUSE: Duration = Duration::from_millis(50);
/// Committed open-loop rates in jobs/s, `(low, high)`: a small and a
/// moderate share of each workload's own closed-loop capacity on a
/// 2-core machine (see README.md), high enough that each phase yields
/// the 1000 samples a p99 needs at `--seconds 20` and up.
const RATES_PLAIN: (f64, f64) = (1000.0, 2000.0);
const RATES_JOURNALED: (f64, f64) = (150.0, 300.0);
/// Least time between two polls of one job. Polling flat out would
/// spend the cores the server needs (this is a 2-core benchmark); the
/// gap bounds how late a finished job can be seen.
const POLL_GAP: Duration = Duration::from_micros(200);
/// Requests one connection may have in flight.
const MAX_INFLIGHT: usize = 64;
/// A run whose generator sent half its submissions later than this
/// could not keep its schedule: it is marked invalid. (Its p99 lag is
/// reported; stalls of the machine raise that without the generator
/// falling behind.)
const LAG_LIMIT_MS: f64 = 2.0;
/// How long accepted jobs may take to turn terminal after their phase
/// ends before they count as lost.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// A running `ucp serve` child process. Dropping it kills and reaps the
/// process and removes its journal.
struct ServerProc {
    child: Child,
    /// Held open so the server's remaining start-up lines never hit a
    /// closed pipe.
    stdout: BufReader<ChildStdout>,
    addr: String,
    journal: Option<PathBuf>,
}

impl ServerProc {
    /// Starts the server and waits for the line announcing its address.
    fn start(ucp: &Path, journal: Option<PathBuf>) -> Result<ServerProc, String> {
        let mut cmd = Command::new(ucp);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(SERVER_WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if let Some(dir) = &journal {
            cmd.arg("--journal").arg(dir);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ucp.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut proc = ServerProc {
            child,
            stdout,
            addr: String::new(),
            journal,
        };
        let mut line = String::new();
        let read = proc.stdout.read_line(&mut line);
        match line.trim().rsplit_once("http://") {
            Some((_, addr)) if read.is_ok() => {
                proc.addr = addr.to_string();
                Ok(proc)
            }
            _ => Err(format!(
                "`ucp serve` did not report its address (got {line:?})"
            )),
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }

    fn cpu_seconds(&self) -> f64 {
        cpu_seconds(&self.child.id().to_string())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(dir) = &self.journal {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn cycle(n: usize) -> CoverMatrix {
    CoverMatrix::from_rows(n, (0..n).map(|i| vec![i, (i + 1) % n]).collect())
}

/// `(rows, cols)` of the random unate bodies, row degree 2–5: the
/// open-loop bodies, then the closed-loop round bodies.
const RANDOM_SHAPES: [(usize, usize); 3] = [(16, 12), (20, 14), (24, 16)];
const ROUND_SHAPES: [(usize, usize); 3] = [(48, 36), (60, 42), (72, 48)];

/// The seeded request bodies, rendered to JSON: [`POOL`] open-loop
/// bodies (a third cycles, the rest small random unate matrices), then
/// [`ROUND_JOBS`] round bodies (larger random unate matrices). Shapes
/// are fixed, so seeds change contents, not sizes.
fn body_pool(seed: u64) -> Vec<String> {
    (0..POOL + ROUND_JOBS)
        .map(|k| {
            let s = derive_seed(seed, k as u64);
            let mut spec = JobSpec::new(Preset::Fast);
            spec.seed = Some(s >> 16);
            let matrix = if k < POOL && k % 3 == 0 {
                cycle(9 + k / 3)
            } else {
                let (rows, cols) = if k < POOL {
                    RANDOM_SHAPES[k / 3 % 3]
                } else {
                    ROUND_SHAPES[k % 3]
                };
                let cfg = RandomUcpConfig {
                    rows,
                    cols,
                    min_row_degree: 2,
                    max_row_degree: 5,
                    costs: CostModel::Unit,
                };
                random_ucp(&cfg, s)
            };
            SubmitBody {
                matrix,
                spec,
                tenant: None,
                trace: false,
            }
            .to_json()
        })
        .collect()
}

/// What each pool body must come back with: the same body solved
/// in-process through the same wire decode and `JobSpec::to_request`.
fn expected_outcomes(pool: &[String]) -> Vec<ScgOutcome> {
    pool.iter()
        .map(|json| {
            let body = SubmitBody::parse(json).expect("the pool renders valid bodies");
            Scg::run(body.spec.to_request(Arc::new(body.matrix)))
                .expect("a request without cancel flag, deadline or budget")
        })
        .collect()
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Low,
    High,
    /// Closed-loop round `k`.
    Round(usize),
}

/// An accepted job that is not yet known to be terminal.
struct Pending {
    id: String,
    body: usize,
    due: Instant,
    phase: Phase,
    /// Not polled again before this: see [`POLL_GAP`].
    next_poll: Instant,
}

/// A terminal job as the generator saw it, checked after the run.
struct Finished {
    body: usize,
    phase: Phase,
    status: JobStatusDto,
}

/// What a request on the wire was for.
enum Request {
    Submit {
        body: usize,
        due: Instant,
        phase: Phase,
    },
    Poll(Pending),
    Scrape,
}

/// One keep-alive connection carrying pipelined requests: each request
/// is written when issued and the responses are read back in order, so
/// one thread keeps several requests in flight without blocking on any.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    inflight: VecDeque<(Request, Instant)>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("cannot reach server: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            inflight: VecDeque::new(),
        })
    }

    fn send(&mut self, method: &str, path: &str, body: &[u8], what: Request) -> Result<(), String> {
        let mut bytes = format!(
            "{method} {path} HTTP/1.1\r\nHost: ucp\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        bytes.extend_from_slice(body);
        // Timed before the write: the write can wake the server on this
        // core and let it answer before the write returns.
        let sent = Instant::now();
        self.stream
            .write_all(&bytes)
            .map_err(|e| format!("{method} {path}: {e}"))?;
        self.inflight.push_back((what, sent));
        Ok(())
    }

    /// The oldest in-flight request with its response, once that
    /// response is complete; `None` if it is not complete by `until`.
    /// Always reads at least once, so a caller that is already late
    /// still makes progress.
    fn recv(&mut self, until: Instant) -> Result<Option<(Request, Instant, u16, String)>, String> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((status, body, used)) = parse_response(&self.buf)? {
                self.buf.drain(..used);
                let (what, sent) = self
                    .inflight
                    .pop_front()
                    .ok_or("response without a request")?;
                return Ok(Some((what, sent, status, body)));
            }
            let wait = until
                .saturating_duration_since(Instant::now())
                .max(Duration::from_micros(20));
            self.stream
                .set_read_timeout(Some(wait))
                .map_err(|e| format!("cannot set a read timeout: {e}"))?;
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None)
                }
                Err(e) => return Err(format!("reading a response: {e}")),
            }
        }
    }
}

/// Splits one complete `Content-Length` response off the front of
/// `buf`: status, body and bytes used.
fn parse_response(buf: &[u8]) -> Result<Option<(u16, String, usize)>, String> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| "response head is not UTF-8")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .ok_or_else(|| format!("response without Content-Length: {head:?}"))?;
    let start = end + 4;
    if buf.len() < start + len {
        return Ok(None);
    }
    let body = String::from_utf8_lossy(&buf[start..start + len]).into_owned();
    Ok(Some((status, body, start + len)))
}

/// The one-thread load generator and its tallies.
struct Generator<'a> {
    /// Submits go out on the first connection, polls on the last (one
    /// connection per core, at most two).
    conns: Vec<Conn>,
    pool: &'a [String],
    /// Accepted jobs waiting for their next poll, in `next_poll` order:
    /// every outstanding job is polled round-robin.
    waiting: VecDeque<Pending>,
    finished: Vec<Finished>,
    /// Latency of each job of the low and high phases.
    latency_ms: [Vec<f64>; 2],
    lag_ms: Vec<f64>,
    polls: u64,
    refused_429: u64,
}

impl<'a> Generator<'a> {
    fn new(addr: &str, pool: &'a [String]) -> Result<Generator<'a>, String> {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        Ok(Generator {
            conns: (0..nproc.min(2))
                .map(|_| Conn::open(addr))
                .collect::<Result<_, _>>()?,
            pool,
            waiting: VecDeque::new(),
            finished: Vec::new(),
            latency_ms: [Vec::new(), Vec::new()],
            lag_ms: Vec::new(),
            polls: 0,
            refused_429: 0,
        })
    }

    /// Jobs submitted and not yet seen terminal.
    fn outstanding(&self) -> usize {
        self.waiting.len() + self.conns.iter().map(|c| c.inflight.len()).sum::<usize>()
    }

    /// Submits pool body `body`.
    fn submit(
        &mut self,
        body: usize,
        due: Instant,
        phase: Phase,
        report: &mut Report,
    ) -> Result<(), String> {
        report.attempt();
        self.conns[0].send(
            "POST",
            "/v1/jobs",
            self.pool[body].as_bytes(),
            Request::Submit { body, due, phase },
        )
    }

    /// Sends the polls that are due, then handles one response, waiting
    /// at most until `until`. Returns the phase of a job seen terminal.
    fn pump(
        &mut self,
        until: Instant,
        tracer: &mut Tracer,
        report: &mut Report,
    ) -> Result<Option<Phase>, String> {
        let now = Instant::now();
        while self.waiting.front().is_some_and(|p| p.next_poll <= now)
            && self.conns.last().expect("a connection").inflight.len() < MAX_INFLIGHT
        {
            let job = self.waiting.pop_front().expect("front exists");
            let path = format!("/v1/jobs/{}", job.id);
            let conn = self.conns.last_mut().expect("a connection");
            conn.send("GET", &path, b"", Request::Poll(job))?;
        }
        let wake = self
            .waiting
            .front()
            .map_or(until, |p| p.next_poll.min(until));
        // Read from the connection holding the oldest request.
        let oldest = (0..self.conns.len())
            .filter_map(|i| self.conns[i].inflight.front().map(|(_, sent)| (*sent, i)))
            .min()
            .map(|(_, i)| i);
        let Some(i) = oldest else {
            wait_until(wake);
            return Ok(None);
        };
        let Some((what, sent, status, body)) = self.conns[i].recv(wake)? else {
            return Ok(None);
        };
        let seen = Instant::now();
        match what {
            Request::Submit {
                body: idx,
                due,
                phase,
            } => {
                tracer.record("http.submit", sent, seen);
                match (status, JobStatusDto::parse(&body)) {
                    (201, Ok(s)) => self.waiting.push_back(Pending {
                        id: s.id,
                        body: idx,
                        due,
                        phase,
                        next_poll: seen + POLL_GAP,
                    }),
                    (429, _) => {
                        self.refused_429 += 1;
                        report.fail(format!("submit refused with HTTP 429: {body}"));
                    }
                    _ => report.fail(format!("submit answered HTTP {status}: {body}")),
                }
                Ok(None)
            }
            Request::Poll(job) => {
                tracer.record("http.poll", sent, seen);
                self.polls += 1;
                let status = match (status, JobStatusDto::parse(&body)) {
                    (200, Ok(s)) => s,
                    _ => {
                        report.fail(format!(
                            "poll {} answered HTTP {status} (lost): {body}",
                            job.id
                        ));
                        return Ok(None);
                    }
                };
                if !status.state.is_terminal() {
                    self.waiting.push_back(Pending {
                        next_poll: seen + POLL_GAP,
                        ..job
                    });
                    return Ok(None);
                }
                let ms = seen.duration_since(job.due).as_secs_f64() * 1e3;
                match job.phase {
                    Phase::Low => self.latency_ms[0].push(ms),
                    Phase::High => self.latency_ms[1].push(ms),
                    Phase::Round(_) => {}
                }
                self.finished.push(Finished {
                    body: job.body,
                    phase: job.phase,
                    status,
                });
                Ok(Some(job.phase))
            }
            Request::Scrape => Err("unexpected /metrics response".into()),
        }
    }

    /// Open loop: submissions are due at `rate` per second for
    /// `seconds`, whatever the server does; between due times the
    /// generator polls and reads responses.
    fn open_loop(
        &mut self,
        phase: Phase,
        rate: f64,
        seconds: f64,
        tracer: &mut Tracer,
        report: &mut Report,
    ) -> Result<(), String> {
        let start = Instant::now();
        let jobs = (rate * seconds).round() as usize;
        for i in 0..jobs {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            while Instant::now() < due {
                self.pump(due, tracer, report)?;
            }
            self.lag_ms
                .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
            self.submit(i % POOL, due, phase, report)?;
        }
        Ok(())
    }

    /// Closed-loop round `k`: submits the round bodies in order,
    /// [`ROUND_JOBS`] jobs with [`WINDOW`] of them outstanding, and
    /// returns the seconds until the last is seen terminal.
    fn closed_round(
        &mut self,
        k: usize,
        tracer: &mut Tracer,
        report: &mut Report,
    ) -> Result<f64, String> {
        let start = Instant::now();
        let limit = start + DRAIN_LIMIT;
        for j in 0..ROUND_JOBS {
            while self.outstanding() >= WINDOW {
                if Instant::now() >= limit {
                    return Err(format!("closed-loop round {k} stalled for {DRAIN_LIMIT:?}"));
                }
                self.pump(limit, tracer, report)?;
            }
            self.submit(POOL + j, Instant::now(), Phase::Round(k), report)?;
        }
        self.drain(tracer, report)?;
        Ok(start.elapsed().as_secs_f64())
    }

    /// Handles responses until nothing is outstanding. Jobs still not
    /// terminal after [`DRAIN_LIMIT`] are lost; a request still
    /// unanswered then means the server stopped answering.
    fn drain(&mut self, tracer: &mut Tracer, report: &mut Report) -> Result<(), String> {
        let limit = Instant::now() + DRAIN_LIMIT;
        while self.outstanding() > 0 && Instant::now() < limit {
            self.pump(limit, tracer, report)?;
        }
        if self.conns.iter().any(|c| !c.inflight.is_empty()) {
            return Err(format!(
                "the server left requests unanswered for {DRAIN_LIMIT:?}"
            ));
        }
        for job in self.waiting.drain(..) {
            report.fail(format!("job {} never turned terminal (lost)", job.id));
        }
        Ok(())
    }

    /// `GET /metrics` once nothing else is in flight.
    fn scrape(&mut self) -> Result<String, String> {
        let conn = &mut self.conns[0];
        conn.send("GET", "/metrics", b"", Request::Scrape)?;
        let limit = Instant::now() + Duration::from_secs(10);
        while Instant::now() < limit {
            if let Some((_, _, status, body)) = conn.recv(limit)? {
                return match status {
                    200 => Ok(body),
                    _ => Err(format!("/metrics answered HTTP {status}")),
                };
            }
        }
        Err("/metrics did not answer".into())
    }
}

/// Sleeps until `at`, yielding instead through the last stretch a
/// sleep would overshoot.
fn wait_until(at: Instant) {
    let now = Instant::now();
    if at <= now {
        return;
    }
    let left = at - now;
    if left > Duration::from_micros(100) {
        std::thread::sleep(left - Duration::from_micros(60));
    } else {
        std::thread::yield_now();
    }
}

/// One Prometheus sample: family-qualified name, label text, value.
struct Sample {
    name: String,
    labels: String,
    value: f64,
}

fn parse_prometheus(text: &str) -> Vec<Sample> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let (name, labels) = match series.split_once('{') {
                Some((n, rest)) => (n, rest.trim_end_matches('}')),
                None => (series, ""),
            };
            Some(Sample {
                name: name.to_string(),
                labels: labels.to_string(),
                value: value.parse().ok()?,
            })
        })
        .collect()
}

/// Sum of every series of `name`.
fn scraped(samples: &[Sample], name: &str) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum()
}

/// Quantile `q` of histogram `name` in milliseconds, interpolated
/// linearly inside the bucket that holds it.
fn histogram_quantile_ms(samples: &[Sample], name: &str, q: f64) -> f64 {
    let bucket = format!("{name}_bucket");
    let mut buckets: Vec<(f64, f64)> = samples
        .iter()
        .filter(|s| s.name == bucket)
        .filter_map(|s| {
            let le = s.labels.split("le=\"").nth(1)?.split('"').next()?;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((bound, s.value))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last().map_or(0.0, |b| b.1);
    if total <= 0.0 {
        return f64::NAN;
    }
    let target = q * total;
    let (mut lo, mut below) = (0.0, 0.0);
    for (bound, cum) in buckets {
        if cum >= target {
            if bound.is_infinite() {
                return lo * 1e3;
            }
            let share = if cum > below {
                (target - below) / (cum - below)
            } else {
                1.0
            };
            return (lo + (bound - lo) * share) * 1e3;
        }
        lo = bound;
        below = cum;
    }
    f64::NAN
}

/// Checks every terminal job against the in-process answer for its
/// body; counts lost and wrong jobs as failures.
fn verify(report: &mut Report, finished: &[Finished], expected: &[ScgOutcome]) -> u64 {
    let mut shed = 0;
    for f in finished {
        shed += u64::from(f.status.shed);
        let want = &expected[f.body];
        match (&f.status.state, &f.status.result) {
            (JobState::Done, Some(result))
                if want.cost.is_finite()
                    && result.cost == want.cost
                    && result.lower_bound == want.lower_bound => {}
            (JobState::Done, Some(result)) => report.fail(format!(
                "job {}: cost {} and bound {} but the in-process solve of body {} gives {} and {}",
                f.status.id, result.cost, result.lower_bound, f.body, want.cost, want.lower_bound
            )),
            (state, _) => report.fail(format!(
                "job {} ended {state:?} ({:?})",
                f.status.id, f.status.error
            )),
        }
    }
    shed
}

/// The `serve` and `serve-journaled` workloads.
pub fn run(
    args: &Args,
    journaled: bool,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("cannot create {}: {e}", args.scratch.display()))?;
    let mut starts = 0usize;
    let mut setup = SetupTimes::default();
    let (pool, server) = setup.sample(
        SETUP_FIRST_S,
        || {
            starts += 1;
            let pool = body_pool(args.seed);
            let journal = journaled.then(|| {
                args.scratch
                    .join(format!("journal-{}-{starts}", std::process::id()))
            });
            if let Some(dir) = &journal {
                let _ = std::fs::remove_dir_all(dir);
            }
            (pool, ServerProc::start(&args.ucp, journal))
        },
        drop,
    );
    let setup_s = setup.fastest();
    let server = server?;
    let (low_rate, high_rate) = if journaled {
        RATES_JOURNALED
    } else {
        RATES_PLAIN
    };
    let [low_s, high_s, sat_s] = PHASE_SHARES.map(|share| share * args.seconds);
    report.note(format!(
        "`ucp serve --workers {SERVER_WORKERS}{}`, {POOL} small and {ROUND_JOBS} round Fast-preset bodies; low {low_rate}/s for {low_s:.1}s, high {high_rate}/s for {high_s:.1}s (open loop), closed-loop rounds of {ROUND_JOBS} jobs, window {WINDOW}, {ROUND_PAUSE:?} apart, for {sat_s:.1}s",
        if journaled { " --journal <scratch>" } else { "" }
    ));

    let cpu_before = server.cpu_seconds();
    let mut gen = Generator::new(&server.addr, &pool)?;
    gen.open_loop(Phase::Low, low_rate, low_s, tracer, report)?;
    gen.open_loop(Phase::High, high_rate, high_s, tracer, report)?;
    gen.drain(tracer, report)?;
    // Memory over the fixed open-loop schedule: the server keeps
    // terminal jobs, and the closed loop serves a number of jobs that
    // varies with speed.
    let rss = server.peak_rss_mb();
    let open_jobs = gen.finished.len();
    let open_cpu_ms = (server.cpu_seconds() - cpu_before) * 1e3 / open_jobs.max(1) as f64;

    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut host = HostSpeed::default();
    let cpu_before = server.cpu_seconds();
    let start = Instant::now();
    let mut last = 0.0f64;
    let min_rounds = if args.trace { 2 } else { 1 };
    for k in 0usize.. {
        if k >= min_rounds && start.elapsed().as_secs_f64() + last > sat_s {
            break;
        }
        let traced_round = args.trace && k % 2 == 1;
        let ref_s = host.measure(ROUND_PAUSE.as_secs_f64(), SERVER_WORKERS);
        tracer.set_recording(traced_round);
        let wall = gen.closed_round(k, tracer, report)?;
        last = wall + ROUND_PAUSE.as_secs_f64();
        if traced_round {
            traced.push(wall);
        } else {
            plain.push((wall, ref_s));
        }
    }
    tracer.set_recording(args.trace);
    let rounds = plain.len() + traced.len();
    // Over the rounds, not the open loop: the server's CPU per small job
    // spread 21% over ten seeds, as more or fewer polls find each job
    // unfinished.
    let cpu_ms_per_job = (server.cpu_seconds() - cpu_before) * 1e3 / (rounds * ROUND_JOBS) as f64;
    let samples = parse_prometheus(&gen.scrape()?);
    let journal_dir = server.journal.clone();

    let expected = expected_outcomes(&pool);
    let shed = verify(report, &gen.finished, &expected);
    // Round 0's answers, checked against the in-process solves above.
    let (mut cost_total, mut lb_total) = (0.0, 0.0);
    for f in &gen.finished {
        if let (Phase::Round(0), Some(r)) = (f.phase, &f.status.result) {
            cost_total += r.cost;
            lb_total += r.lower_bound;
        }
    }
    let raw_walls: Vec<f64> = plain.iter().map(|&(wall, _)| wall).collect();
    let raw_wall = median(&raw_walls);
    report.note(format!(
        "untraced rounds: {:.5}/{:.5} s at the quartiles, {:.5}/{:.5} s at the 10th/90th percentiles",
        quantile(&raw_walls, 0.25),
        quantile(&raw_walls, 0.75),
        quantile(&raw_walls, 0.1),
        quantile(&raw_walls, 0.9),
    ));
    let lag_p50 = quantile(&gen.lag_ms, 0.5);
    let lag_p99 = quantile(&gen.lag_ms, 0.99);
    let [low, high] = &gen.latency_ms;
    report.note(format!(
        "latency samples: low {}, high {} (a p99 wants >= {}); {rounds} closed-loop rounds of {ROUND_JOBS} jobs",
        low.len(),
        high.len(),
        samples_for(0.99)
    ));
    if lag_p50 > LAG_LIMIT_MS {
        report.invalidate(format!(
            "generator fell behind its schedule: lag p50 {lag_p50:.3} ms > {LAG_LIMIT_MS} ms"
        ));
    }
    // Open-loop latencies are details, not gates: on a shared 2-core
    // host their run-to-run spread is wider than any bound the benchmark
    // may set (see README.md).
    for (name, ms) in [
        ("low.p50_ms", quantile(low, 0.5)),
        ("low.p99_ms", quantile(low, 0.99)),
        ("high.p50_ms", quantile(high, 0.5)),
        ("high.p99_ms", quantile(high, 0.99)),
        ("loadgen.lag_p99_ms", lag_p99),
        ("server.open_loop_cpu_ms_per_job", open_cpu_ms),
    ] {
        report.detail(name, ms, "ms");
    }
    report.detail("capacity_jobs_per_s", ROUND_JOBS as f64 / raw_wall, "1/s");
    report.detail("low.samples", low.len() as f64, "count");
    report.detail("high.samples", high.len() as f64, "count");
    report.detail("server.refused_429", gen.refused_429 as f64, "count");
    report.detail("server.shed", shed as f64, "count");
    if !args.trace {
        // Scaled to the reference speed: each round by the reference
        // runs right before it, the rest by the run's median.
        let speed = REFERENCE_S / host.median();
        let scaled: Vec<f64> = plain
            .iter()
            .map(|&(wall, ref_s)| wall * REFERENCE_S / ref_s)
            .collect();
        report.detail("host.reference_ms", host.median() * 1e3, "ms");
        report.detail("raw.wall_s", raw_wall, "s");
        report.detail("raw.setup_s", setup_s, "s");
        report.detail("raw.cpu_ms_per_job", cpu_ms_per_job, "ms");
        report.metric("setup_s", setup_s * speed, "s");
        report.metric("wall_s", median(&scaled), "s");
        report.metric("cpu_ms_per_job", cpu_ms_per_job * speed, "ms");
        report.metric("cost_total", cost_total, "cost");
        report.metric("lb_total", lb_total, "cost");
        report.metric("peak_rss_mb", rss, "MB");
        return Ok(());
    }
    traced_details(report, tracer, &samples, &gen, open_jobs, journaled);
    probes::trace_overhead(report, &raw_walls, &traced);
    let mut zdd = cover::ZddStats::default();
    let mut phases = PhaseTimes::default();
    for out in &expected {
        zdd.merge(&out.zdd_stats);
        probes::add_phases(&mut phases, &out.phase_times);
    }
    probes::zdd(report, &zdd, 1.0);
    probes::phases(report, &phases, 1.0);
    let bodies: Vec<SubmitBody> = pool
        .iter()
        .map(|j| SubmitBody::parse(j).expect("the pool renders valid bodies"))
        .collect();
    let matrices: Vec<&CoverMatrix> = bodies.iter().map(|b| &b.matrix).collect();
    probes::cover_and_core(tracer, report, &matrices)?;
    let statuses: Vec<JobStatusDto> = gen.finished.iter().map(|f| f.status.clone()).collect();
    probes::wire(tracer, report, &pool, &statuses)?;
    // The journaled server's own record stream, or the one it would
    // have written for the pool.
    let records = match &journal_dir {
        Some(dir) => {
            read_journal(dir)
                .map_err(|e| format!("cannot read the journal: {e}"))?
                .records
        }
        None => {
            let jobs: Vec<(&CoverMatrix, JobResultDto)> = matrices
                .iter()
                .copied()
                .zip(expected.iter().map(JobResultDto::from_outcome))
                .collect();
            probes::job_records(&bodies[0].spec, &jobs)
        }
    };
    let dir = args
        .scratch
        .join(format!("append-probe-{}", std::process::id()));
    probes::journal_append(tracer, report, &records, &dir)?;
    drop(server);
    Ok(())
}

/// Details of the traced run: round trips from the spans, the engine's
/// histograms and the journal's counters from `/metrics`.
fn traced_details(
    report: &mut Report,
    tracer: &Tracer,
    samples: &[Sample],
    gen: &Generator<'_>,
    open_jobs: usize,
    journaled: bool,
) {
    let ms = |name: &str| -> Vec<f64> { tracer.durations(name).iter().map(|s| s * 1e3).collect() };
    let (submit_ms, poll_ms) = (ms("http.submit"), ms("http.poll"));
    let accepted = scraped(samples, "ucp_server_jobs_accepted_total").max(1.0);
    for (name, value) in [
        ("server.submit_rtt_p50_ms", quantile(&submit_ms, 0.5)),
        ("server.submit_rtt_p99_ms", quantile(&submit_ms, 0.99)),
        ("server.poll_rtt_p50_ms", quantile(&poll_ms, 0.5)),
        (
            "engine.queue_wait_p50_ms",
            histogram_quantile_ms(samples, "ucp_engine_queue_wait_seconds", 0.5),
        ),
        (
            "engine.queue_wait_p99_ms",
            histogram_quantile_ms(samples, "ucp_engine_queue_wait_seconds", 0.99),
        ),
        (
            "engine.run_p50_ms",
            histogram_quantile_ms(samples, "ucp_engine_run_seconds", 0.5),
        ),
    ] {
        report.detail(name, value, "ms");
    }
    report.detail(
        "server.polls_per_done",
        gen.polls as f64 / gen.finished.len().max(1) as f64,
        "count",
    );
    if journaled {
        report.detail(
            "durability.fsyncs_per_job",
            scraped(samples, "ucp_durability_fsyncs_total") / accepted,
            "count",
        );
        report.detail(
            "durability.bytes_per_job",
            scraped(samples, "ucp_durability_bytes_written_total") / accepted,
            "bytes",
        );
    }
    report.note(format!(
        "{open_jobs} open-loop jobs, {} jobs in all",
        gen.finished.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_interpolate_inside_buckets() {
        let text = "# TYPE h histogram\n\
            h_bucket{le=\"0.001\"} 50\n\
            h_bucket{le=\"0.004\"} 100\n\
            h_bucket{le=\"+Inf\"} 100\n\
            h_sum 0.1\nh_count 100\n\
            c_total{reason=\"queue_full\"} 3\n";
        let samples = parse_prometheus(text);
        assert!((histogram_quantile_ms(&samples, "h", 0.5) - 1.0).abs() < 1e-9);
        assert!((histogram_quantile_ms(&samples, "h", 0.75) - 2.5).abs() < 1e-9);
        assert_eq!(scraped(&samples, "c_total"), 3.0);
        assert!(histogram_quantile_ms(&samples, "missing", 0.5).is_nan());
    }

    #[test]
    fn pipelined_responses_split_in_order() {
        let two = b"HTTP/1.1 201 Created\r\nContent-Length: 2\r\n\r\n{}HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\nabc";
        let (status, body, used) = parse_response(two).unwrap().unwrap();
        assert_eq!((status, body.as_str()), (201, "{}"));
        let (status, body, rest) = parse_response(&two[used..]).unwrap().unwrap();
        assert_eq!(
            (status, body.as_str(), used + rest),
            (200, "abc", two.len())
        );
        // Incomplete head or body: wait for more bytes.
        assert!(parse_response(&two[..10]).unwrap().is_none());
        assert!(parse_response(&two[..used - 1]).unwrap().is_none());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
    }

    #[test]
    fn body_pool_is_seeded_and_decodes() {
        let a = body_pool(7);
        assert_eq!(a, body_pool(7));
        assert_ne!(a, body_pool(8));
        assert!(a.iter().all(|j| SubmitBody::parse(j).is_ok()));
    }
}
