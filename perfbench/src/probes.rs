//! The per-layer metrics every workload reports in its traced run.
//!
//! BENCHMARK.json lists one set of per-layer metrics for all workloads,
//! so each is measured on every workload, on that workload's own inputs:
//! standalone calls into the layers behind `Scg::run` (`cyclic_core`,
//! then `subgradient_ascent` and `best_greedy` on its core), the wire
//! codec on the inputs rendered as `ucp-api/2` bodies and on their
//! results, `Journal::append` on a record stream of the inputs, the ZDD
//! counters of the solves, and the tracing overhead of the workload's
//! rounds. Figures only one workload has are details (see
//! [`Report::detail`]).

use crate::report::Report;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use cover::{cyclic_core, CoreResult, CoverMatrix, ZddStats};
use std::path::Path;
use ucp_core::greedy::{best_greedy, GammaRule};
use ucp_core::wire::{JobResultDto, JobSpec, JobState, JobStatusDto, SubmitBody};
use ucp_core::{subgradient_ascent, ScgOptions};
use ucp_durability::{Journal, Record};
use ucp_telemetry::PhaseTimes;

/// Decodes of each body timed by the wire probe.
const DECODE_REPEATS: usize = 20;
/// Appends timed by the durability probe: the record stream is cycled
/// until this many are done, so a p99 has ten samples beyond it.
const APPEND_PROBE_RECORDS: usize = 1000;

/// `trace.*`: medians of the untraced and the traced rounds of one run,
/// alternated on the same inputs, and their difference.
pub fn trace_overhead(report: &mut Report, untraced_s: &[f64], traced_s: &[f64]) {
    let (plain, traced) = (median(untraced_s), median(traced_s));
    report.note(format!(
        "{} untraced and {} traced rounds alternated",
        untraced_s.len(),
        traced_s.len()
    ));
    report.metric("trace.wall_s", traced, "s");
    report.metric("trace.untraced_wall_s", plain, "s");
    report.metric("trace.overhead_s", traced - plain, "s");
}

/// `zdd.*`: counters of the ZDD managers of `rounds` rounds of solves,
/// per round.
pub fn zdd(report: &mut Report, stats: &ZddStats, rounds: f64) {
    report.metric("zdd.cache_hit_rate", stats.cache_hit_rate(), "ratio");
    report.metric("zdd.unique_hit_rate", stats.unique_hit_rate(), "ratio");
    report.metric(
        "zdd.cache_misses",
        stats.cache_misses as f64 / rounds,
        "count",
    );
    report.metric("zdd.gc_runs", stats.gc_runs as f64 / rounds, "count");
    report.metric("zdd.peak_nodes", stats.peak_nodes as f64, "count");
}

/// `ScgOutcome::phase_times` per round, as details: which phases run
/// differs by workload (the subgradient never runs on `minimize-pla`).
pub fn phases(report: &mut Report, p: &PhaseTimes, rounds: f64) {
    for (phase, secs) in [
        ("implicit_reduction", p.implicit_reduction),
        ("explicit_reduction", p.explicit_reduction),
        ("partition", p.partition),
        ("subgradient", p.subgradient),
        ("constructive", p.constructive),
        ("postprocess", p.postprocess),
    ] {
        report.detail(format!("core.phase.{phase}_s"), secs / rounds, "s");
    }
}

pub fn add_phases(acc: &mut PhaseTimes, p: &PhaseTimes) {
    acc.implicit_reduction += p.implicit_reduction;
    acc.explicit_reduction += p.explicit_reduction;
    acc.partition += p.partition;
    acc.subgradient += p.subgradient;
    acc.constructive += p.constructive;
    acc.postprocess += p.postprocess;
}

/// `cover.*` and `core.*`: `cyclic_core` on each matrix, then one
/// subgradient ascent and the greedy rules on each core. A core that
/// reductions emptied (every PLA of `minimize-pla`) still gets the
/// calls, which return at once.
pub fn cover_and_core(
    tracer: &mut Tracer,
    report: &mut Report,
    matrices: &[&CoverMatrix],
) -> Result<(), String> {
    let opts = ScgOptions::default();
    let cores: Vec<CoreResult> = matrices
        .iter()
        .map(|m| tracer.span("probe.cyclic_core", |_| cyclic_core(m, &opts.core)))
        .collect();
    let sum = |f: &dyn Fn(&CoreResult) -> f64| cores.iter().map(f).sum::<f64>();
    report.metric(
        "cover.cyclic_core_s",
        tracer.total("probe.cyclic_core"),
        "s",
    );
    report.metric(
        "cover.implicit_s",
        sum(&|c| c.implicit_time.as_secs_f64()),
        "s",
    );
    report.metric(
        "cover.explicit_s",
        sum(&|c| c.explicit_time.as_secs_f64()),
        "s",
    );
    report.metric(
        "cover.core_rows",
        sum(&|c| c.core.num_rows() as f64),
        "count",
    );
    report.metric(
        "cover.core_cols",
        sum(&|c| c.core.num_cols() as f64),
        "count",
    );
    let mut iters = 0usize;
    for core in &cores {
        let res = tracer.span("probe.subgradient_ascent", |_| {
            subgradient_ascent(&core.core, &opts.subgradient, None, None)
        });
        iters += res.iterations;
        let greedy = tracer.span("probe.best_greedy", |_| {
            best_greedy(&core.core, &res.c_tilde, &GammaRule::FAST)
        });
        if core.core.num_rows() > 0 && greedy.is_none_or(|(sol, _)| !sol.is_feasible(&core.core)) {
            return Err("best_greedy probe returned no feasible cover of a cyclic core".into());
        }
    }
    let sg_s = tracer.total("probe.subgradient_ascent");
    report.metric("core.subgradient_s", sg_s, "s");
    report.metric("core.subgradient_iters", iters as f64, "count");
    report.metric("core.us_per_iter", sg_s * 1e6 / iters.max(1) as f64, "us");
    report.metric("core.greedy_s", tracer.total("probe.best_greedy"), "s");
    Ok(())
}

/// The `ucp-api/2` body submitting `matrix` under `spec`.
pub fn body_json(matrix: &CoverMatrix, spec: &JobSpec) -> String {
    SubmitBody {
        matrix: matrix.clone(),
        spec: spec.clone(),
        tenant: None,
        trace: false,
    }
    .to_json()
}

/// The status a poll returns for a job that finished with `result`.
pub fn done_status(job: usize, result: &JobResultDto) -> JobStatusDto {
    JobStatusDto {
        id: format!("j-{job}"),
        state: JobState::Done,
        tenant: "anonymous".into(),
        shed: false,
        cancel_requested: false,
        result: Some(result.clone()),
        error: None,
        recovered: false,
    }
}

/// `wire.*`: median time of one `SubmitBody::parse` of each body and of
/// one `JobStatusDto::to_json` of each status.
pub fn wire(
    tracer: &mut Tracer,
    report: &mut Report,
    bodies: &[String],
    statuses: &[JobStatusDto],
) -> Result<(), String> {
    for json in bodies {
        for _ in 0..DECODE_REPEATS {
            let parsed = tracer.span("probe.wire_decode", |_| SubmitBody::parse(json));
            std::hint::black_box(parsed).map_err(|e| format!("a body does not decode: {e}"))?;
        }
    }
    for s in statuses {
        std::hint::black_box(tracer.span("probe.wire_encode", |_| s.to_json()));
    }
    let us = |name: &str| median(&tracer.durations(name)) * 1e6;
    report.metric("wire.decode_us", us("probe.wire_decode"), "us");
    report.metric("wire.encode_us", us("probe.wire_encode"), "us");
    Ok(())
}

/// The records a journaled server writes for jobs that each ran to
/// completion: submitted, started and done, per job.
pub fn job_records(spec: &JobSpec, jobs: &[(&CoverMatrix, JobResultDto)]) -> Vec<Record> {
    jobs.iter()
        .enumerate()
        .flat_map(|(k, (matrix, result))| {
            let job = k as u64 + 1;
            [
                Record::Submitted {
                    job,
                    t_ms: 0,
                    spec: Some(spec.clone()),
                    matrix: Some((*matrix).clone()),
                    tenant: None,
                    deadline_ms: None,
                },
                Record::Started { job, t_ms: 0 },
                Record::Done {
                    job,
                    t_ms: 0,
                    result: result.clone(),
                },
            ]
        })
        .collect()
}

/// `durability.*`: appends `records` (cycled to [`APPEND_PROBE_RECORDS`])
/// to a fresh journal in `dir`, one span per fsynced append, then
/// removes the journal.
pub fn journal_append(
    tracer: &mut Tracer,
    report: &mut Report,
    records: &[Record],
    dir: &Path,
) -> Result<(), String> {
    if records.is_empty() {
        return Err("no journal records to append".into());
    }
    let _ = std::fs::remove_dir_all(dir);
    let opened = Journal::open(dir).map_err(|e| format!("cannot open a probe journal: {e}"))?;
    for record in records.iter().cycle().take(APPEND_PROBE_RECORDS) {
        tracer
            .span("probe.journal_append", |_| opened.journal.append(record))
            .map_err(|e| format!("probe append failed: {e}"))?;
    }
    drop(opened);
    let _ = std::fs::remove_dir_all(dir);
    let append_ms: Vec<f64> = tracer
        .durations("probe.journal_append")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    report.note(format!(
        "durability probe: {} appends cycling {} records",
        append_ms.len(),
        records.len()
    ));
    report.metric("durability.append_p50_ms", quantile(&append_ms, 0.5), "ms");
    report.metric("durability.append_p99_ms", quantile(&append_ms, 0.99), "ms");
    Ok(())
}

/// Self time per layer of the traced rounds, as details: a span's layer
/// is its name's first part, and `Scg::run` time outside its named
/// phases is the solver core's. Probes have their own metrics.
pub fn self_times(report: &mut Report, tracer: &Tracer, rounds: f64) {
    let mut layers = std::collections::BTreeMap::new();
    for (name, secs) in tracer.self_times() {
        let layer = match name.split('.').next().unwrap_or(name) {
            "probe" => continue,
            "scg" => "core",
            other => other,
        };
        *layers.entry(layer).or_insert(0.0) += secs;
    }
    for (layer, secs) in layers {
        report.detail(format!("self.{layer}_s"), secs / rounds, "s");
    }
}
