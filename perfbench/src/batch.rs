//! The two in-process workloads.
//!
//! * `solve-hard` is the `ucp solve` path: a serial `Scg::run` at the
//!   Paper preset on random unate instances of the `test2`/`soar.pla`/
//!   `ex1010` class. The subgradient phase dominates; the ZDD phase is
//!   idle.
//! * `minimize-pla` is the `ucp minimize` path: PLA text → `Pla` →
//!   `build_covering` → `Scg::run` → `solution_to_pla` →
//!   `verify_against`. Reductions solve these outright, so prime
//!   generation and the implicit ZDD phase dominate and the subgradient
//!   never runs.
//!
//! A round is one pass over the seeded inputs. Rounds repeat until the
//! run's time is spent; `wall_s` is the median round. The traced run
//! alternates untraced and traced rounds, so the tracing overhead is
//! measured on the same inputs in the same process, then runs the layer
//! probes of [`probes`] on the workload's matrices.

use crate::probes;
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{
    cpu_seconds, derive_seed, peak_rss_mb, reset_peak_rss, Args, HostSpeed, SetupTimes,
    REFERENCE_S, SETUP_FIRST_S, SETUP_SLICE_S,
};
use cover::{CoverMatrix, ZddStats};
use logic::Pla;
use std::time::Instant;
use ucp_core::wire::{JobResultDto, JobSpec};
use ucp_core::{Preset, Scg, ScgOutcome, SolveRequest};
use ucp_telemetry::PhaseTimes;
use workloads::{random_pla, random_ucp, CostModel, RandomUcpConfig};

/// `(rows, cols)` of the unate instances: the 400–600-row class of
/// `test2`, `soar.pla` and `ex1010`, unit cost, row degree 3–12.
const UNATE_SHAPES: [(usize, usize); 3] = [(400, 200), (500, 250), (600, 300)];
const ROW_DEGREE: (usize, usize) = (3, 12);
/// PLAs per round. Many mid-sized PLAs rather than a few large ones:
/// the time a PLA takes varies a lot with its seed, and the sum over
/// many varies less from seed to seed.
const PLAS: usize = 24;
/// 10% of PLA terms are don't-cares.
const PLA_DC_PER_MILLE: u32 = 100;
/// Seconds of reference-kernel runs before each round (see
/// [`HostSpeed`]).
const HOST_SLICE_S: f64 = 0.1;

/// `ScgOutcome::phase_times` as `(span name, seconds)`.
fn phase_stages(p: &PhaseTimes) -> [(&'static str, f64); 6] {
    [
        ("cover.implicit", p.implicit_reduction),
        ("cover.explicit", p.explicit_reduction),
        ("core.partition", p.partition),
        ("core.subgradient", p.subgradient),
        ("core.constructive", p.constructive),
        ("core.postprocess", p.postprocess),
    ]
}

/// Runs `Scg::run` inside a span and splits the span along the
/// outcome's own phase times.
fn traced_run(tracer: &mut Tracer, name: &'static str, req: SolveRequest<'_>) -> ScgOutcome {
    tracer.span(name, |t| {
        let out = Scg::run(req).expect("a request without cancel flag, deadline or budget");
        t.record_stages(&phase_stages(&out.phase_times));
        out
    })
}

/// What one round measured.
#[derive(Default)]
struct Round {
    wall_s: f64,
    /// CPU time of the process during the round.
    cpu_s: f64,
    /// Median time of the reference kernel right before the round.
    ref_s: f64,
    /// Cover costs then lower bounds, one per input, in input order:
    /// the same inputs must give the same answers every round.
    answers: Vec<(f64, f64)>,
    /// Peak resident set in MB while each input ran, the peak reset
    /// before it.
    peak_rss_mb: Vec<f64>,
    /// What a poll of each input's job would return, for the wire and
    /// durability probes.
    results: Vec<JobResultDto>,
    phases: PhaseTimes,
    zdd: ZddStats,
}

/// Repeats `round` until `seconds` are spent (at least once in an
/// untraced run, at least one untraced and one traced round in a
/// traced run), calling `between` after each. Returns the untraced and
/// traced rounds.
fn repeat_rounds(
    args: &Args,
    tracer: &mut Tracer,
    report: &mut Report,
    host: &mut HostSpeed,
    mut round: impl FnMut(&mut Tracer, &mut Report) -> Round,
    mut between: impl FnMut(),
) -> (Vec<Round>, Vec<Round>) {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut last = 0.0f64;
    let mut first_answers: Option<Vec<(f64, f64)>> = None;
    let min_rounds = if args.trace { 2 } else { 1 };
    for k in 0usize.. {
        if k >= min_rounds && start.elapsed().as_secs_f64() + last > args.seconds {
            break;
        }
        let traced_round = args.trace && k % 2 == 1;
        let ref_s = host.measure(HOST_SLICE_S, 1);
        tracer.set_recording(traced_round);
        let (t, cpu) = (Instant::now(), cpu_seconds("self"));
        let mut r = tracer.span("bench.round", |t| round(t, report));
        r.wall_s = t.elapsed().as_secs_f64();
        r.cpu_s = cpu_seconds("self") - cpu;
        r.ref_s = ref_s;
        between();
        last = t.elapsed().as_secs_f64();
        match &first_answers {
            None => first_answers = Some(r.answers.clone()),
            Some(first) if *first != r.answers => {
                report.fail(format!(
                    "round {k} answers differ from round 0 on the same inputs"
                ));
            }
            Some(_) => {}
        }
        if traced_round {
            traced.push(r);
        } else {
            plain.push(r);
        }
    }
    tracer.set_recording(args.trace);
    (plain, traced)
}

/// The end-to-end metrics both batch workloads share: `wall_s` is the
/// median round, `cpu_ms_per_job` the process CPU per input over every
/// round, both scaled to the reference speed round by round, and
/// `peak_rss_mb` the mean over inputs of the peak each reached, what one
/// `ucp solve` or `ucp minimize` call would need. (The peak of the whole
/// process is the peak of its largest input, and jumps by half from seed
/// to seed as that input's matrix crosses an allocation size.)
fn end_to_end(report: &mut Report, setup: &SetupTimes, host: &HostSpeed, plain: &[Round]) {
    report.note(format!("{} rounds", plain.len()));
    let scaled = |r: &Round, secs: f64| secs * REFERENCE_S / r.ref_s;
    let raw_wall = median(&plain.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    report.detail("host.reference_ms", host.median() * 1e3, "ms");
    report.detail("raw.wall_s", raw_wall, "s");
    report.detail("raw.setup_s", setup.fastest(), "s");
    report.metric(
        "setup_s",
        setup.fastest() * REFERENCE_S / host.median(),
        "s",
    );
    report.metric(
        "wall_s",
        median(
            &plain
                .iter()
                .map(|r| scaled(r, r.wall_s))
                .collect::<Vec<_>>(),
        ),
        "s",
    );
    let cpu: f64 = plain.iter().map(|r| scaled(r, r.cpu_s)).sum();
    let jobs: usize = plain.iter().map(|r| r.answers.len()).sum();
    report.metric("cpu_ms_per_job", cpu * 1e3 / jobs.max(1) as f64, "ms");
    // Every round gives the same answers (checked), so the first
    // round's sums stand for the run.
    let answers = &plain[0].answers;
    report.metric("cost_total", answers.iter().map(|a| a.0).sum(), "cost");
    report.metric("lb_total", answers.iter().map(|a| a.1).sum(), "cost");
    let peaks = &plain[0].peak_rss_mb;
    report.metric(
        "peak_rss_mb",
        peaks.iter().sum::<f64>() / peaks.len().max(1) as f64,
        "MB",
    );
}

/// The per-layer metrics both batch workloads share: tracing overhead,
/// ZDD counters and the layer probes on the workload's `matrices`
/// solved under `spec`.
fn per_layer(
    args: &Args,
    tracer: &mut Tracer,
    report: &mut Report,
    (plain, traced): (&[Round], &[Round]),
    spec: &JobSpec,
    matrices: &[&CoverMatrix],
) -> Result<(), String> {
    let walls = |rs: &[Round]| rs.iter().map(|r| r.wall_s).collect::<Vec<_>>();
    probes::trace_overhead(report, &walls(plain), &walls(traced));
    let n = traced.len() as f64;
    let mut phases = PhaseTimes::default();
    let mut zdd = ZddStats::default();
    for r in traced {
        probes::add_phases(&mut phases, &r.phases);
        zdd.merge(&r.zdd);
    }
    probes::zdd(report, &zdd, n);
    probes::phases(report, &phases, n);
    probes::self_times(report, tracer, n);
    probes::cover_and_core(tracer, report, matrices)?;
    let results = &traced[0].results;
    let bodies: Vec<String> = matrices
        .iter()
        .map(|m| probes::body_json(m, spec))
        .collect();
    let statuses: Vec<_> = results
        .iter()
        .enumerate()
        .map(|(k, r)| probes::done_status(k, r))
        .collect();
    probes::wire(tracer, report, &bodies, &statuses)?;
    let jobs: Vec<_> = matrices
        .iter()
        .copied()
        .zip(results.iter().cloned())
        .collect();
    let dir = args
        .scratch
        .join(format!("append-probe-{}", std::process::id()));
    probes::journal_append(tracer, report, &probes::job_records(spec, &jobs), &dir)
}

/// Starts the peak resident set of one input afresh.
fn start_input(report: &mut Report, k: usize) {
    report.attempt();
    if let Err(e) = reset_peak_rss() {
        report.fail(format!(
            "input {k}: cannot reset the peak resident set: {e}"
        ));
    }
}

fn solve_hard_inputs(seed: u64) -> Vec<CoverMatrix> {
    UNATE_SHAPES
        .iter()
        .enumerate()
        .map(|(k, &(rows, cols))| {
            let cfg = RandomUcpConfig {
                rows,
                cols,
                min_row_degree: ROW_DEGREE.0,
                max_row_degree: ROW_DEGREE.1,
                costs: CostModel::Unit,
            };
            random_ucp(&cfg, derive_seed(seed, k as u64))
        })
        .collect()
}

fn check_bound(report: &mut Report, what: &str, out: &ScgOutcome) {
    if !out.cost.is_finite() {
        report.fail(format!("{what}: no cover found"));
    } else if out.lower_bound > out.cost + 1e-9 {
        report.fail(format!(
            "{what}: lower bound {} exceeds cost {}",
            out.lower_bound, out.cost
        ));
    }
}

fn solve_hard_round(inputs: &[CoverMatrix], tracer: &mut Tracer, report: &mut Report) -> Round {
    let mut r = Round::default();
    for (k, m) in inputs.iter().enumerate() {
        start_input(report, k);
        let out = traced_run(
            tracer,
            "scg.unate",
            SolveRequest::for_matrix(m).preset(Preset::Paper),
        );
        if !out.solution.is_feasible(m) {
            report.fail(format!("unate instance {k}: cover is infeasible"));
        }
        check_bound(report, &format!("unate instance {k}"), &out);
        r.answers.push((out.cost, out.lower_bound));
        r.results.push(JobResultDto::from_outcome(&out));
        r.peak_rss_mb.push(peak_rss_mb("self"));
        probes::add_phases(&mut r.phases, &out.phase_times);
        r.zdd.merge(&out.zdd_stats);
    }
    r
}

/// The `solve-hard` workload.
pub fn solve_hard(args: &Args, tracer: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let mut setup = SetupTimes::default();
    let inputs = setup.sample(SETUP_FIRST_S, || solve_hard_inputs(args.seed), drop);
    report.note(format!(
        "{} unate instances {UNATE_SHAPES:?} (row degree {}-{}, unit cost), Paper preset",
        inputs.len(),
        ROW_DEGREE.0,
        ROW_DEGREE.1,
    ));
    let mut host = HostSpeed::default();
    let (plain, traced) = repeat_rounds(
        args,
        tracer,
        report,
        &mut host,
        |t, rep| solve_hard_round(&inputs, t, rep),
        || drop(setup.sample(SETUP_SLICE_S, || solve_hard_inputs(args.seed), drop)),
    );
    if !args.trace {
        end_to_end(report, &setup, &host, &plain);
        return Ok(());
    }
    let matrices: Vec<&CoverMatrix> = inputs.iter().collect();
    per_layer(
        args,
        tracer,
        report,
        (&plain, &traced),
        &JobSpec::new(Preset::Paper),
        &matrices,
    )
}

/// `(inputs, outputs, terms)` of PLA `k`: 14–18 inputs, 1–4 outputs,
/// 80–200 terms.
fn pla_shape(k: usize) -> (usize, usize, usize) {
    (14 + k % 5, 1 + k / 5 % 4, 80 + 10 * (k % 13))
}

fn pla_texts(seed: u64) -> Vec<String> {
    (0..PLAS)
        .map(|k| {
            let (inputs, outputs, terms) = pla_shape(k);
            random_pla(
                inputs,
                outputs,
                terms,
                PLA_DC_PER_MILLE,
                derive_seed(seed, k as u64),
            )
            .to_pla_string()
        })
        .collect()
}

fn minimize_round(texts: &[String], tracer: &mut Tracer, report: &mut Report) -> Round {
    let mut r = Round::default();
    for (k, text) in texts.iter().enumerate() {
        start_input(report, k);
        let pla: Pla = match tracer.span("logic.parse", |_| text.parse()) {
            Ok(p) => p,
            Err(e) => {
                report.fail(format!("PLA {k}: parse failed: {e}"));
                continue;
            }
        };
        let inst = match tracer.span("logic.build_covering", |_| logic::build_covering(&pla)) {
            Ok(i) => i,
            Err(e) => {
                report.fail(format!("PLA {k}: build_covering failed: {e}"));
                continue;
            }
        };
        let out = traced_run(tracer, "scg.unate", SolveRequest::for_matrix(&inst.matrix));
        let minimised = tracer.span("logic.solution_to_pla", |_| {
            inst.solution_to_pla(&out.solution)
        });
        if !tracer.span("logic.verify", |_| inst.verify_against(&pla, &minimised)) {
            report.fail(format!("PLA {k}: minimised PLA fails verify_against"));
        }
        check_bound(report, &format!("PLA {k}"), &out);
        r.answers
            .push((minimised.terms().len() as f64, out.lower_bound));
        r.results.push(JobResultDto::from_outcome(&out));
        r.peak_rss_mb.push(peak_rss_mb("self"));
        probes::add_phases(&mut r.phases, &out.phase_times);
        r.zdd.merge(&out.zdd_stats);
    }
    r
}

/// The `minimize-pla` workload.
pub fn minimize_pla(args: &Args, tracer: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let mut setup = SetupTimes::default();
    let texts = setup.sample(SETUP_FIRST_S, || pla_texts(args.seed), drop);
    report.note(format!(
        "{PLAS} PLAs of 14-18 inputs, 1-4 outputs, 80-200 terms, {}% don't-care terms, `ucp minimize` path",
        PLA_DC_PER_MILLE / 10
    ));
    let mut host = HostSpeed::default();
    let (plain, traced) = repeat_rounds(
        args,
        tracer,
        report,
        &mut host,
        |t, rep| minimize_round(&texts, t, rep),
        || drop(setup.sample(SETUP_SLICE_S, || pla_texts(args.seed), drop)),
    );
    if !args.trace {
        end_to_end(report, &setup, &host, &plain);
        return Ok(());
    }
    let rounds = traced.len() as f64;
    for (metric, span) in [
        ("logic.parse_s", "logic.parse"),
        ("logic.build_covering_s", "logic.build_covering"),
        ("logic.verify_s", "logic.verify"),
    ] {
        report.detail(metric, tracer.total(span) / rounds, "s");
    }
    let matrices: Vec<CoverMatrix> = texts
        .iter()
        .filter_map(|t| t.parse::<Pla>().ok())
        .filter_map(|p| logic::build_covering(&p).ok().map(|i| i.matrix))
        .collect();
    per_layer(
        args,
        tracer,
        report,
        (&plain, &traced),
        &JobSpec::default(),
        &matrices.iter().collect::<Vec<_>>(),
    )
}
