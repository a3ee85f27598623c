//! Server-side job tracking: the table mapping wire ids to engine
//! [`JobHandle`]s, and the live trace buffer behind
//! `GET /v1/jobs/{id}/trace`.
//!
//! The engine's handles are poll-based (`JobHandle::try_wait`), so the
//! table needs no watcher threads: any `GET` on a job drives its
//! transition to a terminal state, and sweeps during admission do the
//! same for the tenant being admitted.
//!
//! Lock discipline: the table mutex is the only lock taken while
//! touching an entry, and per-tenant in-flight counts live in
//! `Arc<AtomicUsize>` slots stored *inside* each entry — so the
//! terminal transition never needs the tenant map's lock, and the two
//! locks are never held together.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use ucp_core::wire::{JobResultDto, JobState, JobStatusDto, WireError};
use ucp_core::CancelFlag;
use ucp_engine::{JobHandle, JobResult};
use ucp_telemetry::{JsonObj, TRACE_SCHEMA};

/// An in-memory `ucp-trace/1` stream: the solve's [`TraceWriter`]
/// appends lines, `GET .../trace` readers drain them live.
pub struct TraceBuf {
    state: Mutex<TraceState>,
    cv: Condvar,
}

#[derive(Default)]
struct TraceState {
    data: Vec<u8>,
    /// The solve-side writer is gone — no more solver lines can appear.
    writer_done: bool,
    /// The job reached a terminal state and the closing `job_result`
    /// line is in `data`.
    finished: bool,
}

impl TraceBuf {
    pub fn new() -> Arc<TraceBuf> {
        Arc::new(TraceBuf {
            state: Mutex::new(TraceState::default()),
            cv: Condvar::new(),
        })
    }

    fn append(&self, bytes: &[u8]) {
        let mut state = self.state.lock().unwrap();
        state.data.extend_from_slice(bytes);
        drop(state);
        self.cv.notify_all();
    }

    fn mark_writer_done(&self) {
        self.state.lock().unwrap().writer_done = true;
        self.cv.notify_all();
    }

    /// Appends the closing `job_result` trace line (same
    /// `schema`/`t`/`event` envelope as every solver line, so the whole
    /// stream parses as one `ucp-trace/1` document) and seals the
    /// stream.
    fn finish(&self, status: &JobStatusDto) {
        let mut obj = JsonObj::new();
        obj.field_str("schema", TRACE_SCHEMA);
        // Trace timestamps are relative to their sink; the server-side
        // closing line has no sink clock, and readers key on `event`.
        obj.field_f64("t", 0.0);
        obj.field_str("event", "job_result");
        obj.field_str("id", &status.id);
        obj.field_str("state", status.state.as_str());
        if let Some(r) = &status.result {
            obj.field_f64("cost", r.cost);
            obj.field_f64("lower_bound", r.lower_bound);
        }
        if let Some(e) = &status.error {
            obj.field_str("code", e.code.as_str());
        }
        let mut line = obj.finish();
        line.push('\n');
        let mut state = self.state.lock().unwrap();
        state.data.extend_from_slice(line.as_bytes());
        state.finished = true;
        drop(state);
        self.cv.notify_all();
    }

    /// Returns bytes past `offset`, blocking up to `wait` for more when
    /// none are pending. The flag is `true` once the stream is complete
    /// (writer gone *and* closing line written) — the reader should
    /// drain what it got and stop.
    pub fn read_from(&self, offset: usize, wait: Duration) -> (Vec<u8>, bool) {
        let mut state = self.state.lock().unwrap();
        if offset >= state.data.len() && !(state.writer_done && state.finished) {
            let (next, _) = self.cv.wait_timeout(state, wait).unwrap();
            state = next;
        }
        let chunk = state.data.get(offset..).unwrap_or(&[]).to_vec();
        let eof = state.writer_done && state.finished && offset + chunk.len() == state.data.len();
        (chunk, eof)
    }
}

/// The solve-side half of a [`TraceBuf`]: handed to the job as
/// `JsonlSink::new(TraceWriter(...))`. Dropping it (which the solver
/// does before the job's result is sent, and request teardown does on
/// every error path) marks the stream's writer done.
pub struct TraceWriter(pub Arc<TraceBuf>);

impl Write for TraceWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.append(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for TraceWriter {
    fn drop(&mut self) {
        self.0.mark_writer_done();
    }
}

/// How one tracked job is stored.
struct JobEntry {
    tenant: String,
    /// The owning tenant's in-flight count; decremented exactly once,
    /// at the terminal transition.
    tenant_slots: Arc<AtomicUsize>,
    shed: bool,
    cancel_requested: bool,
    cancel: CancelFlag,
    trace: Option<Arc<TraceBuf>>,
    /// `true` when this entry was rebuilt from the durability journal
    /// after a restart (in-flight re-runs and replayed terminals both).
    recovered: bool,
    state: EntryState,
}

enum EntryState {
    InFlight(JobHandle),
    Terminal {
        result: Option<JobResultDto>,
        error: Option<WireError>,
    },
}

impl JobEntry {
    fn status(&self, id: u64) -> JobStatusDto {
        let (state, result, error) = match &self.state {
            EntryState::InFlight(_) => (JobState::Pending, None, None),
            EntryState::Terminal { result, error } => (
                if error.is_some() {
                    JobState::Failed
                } else {
                    JobState::Done
                },
                result.clone(),
                error.clone(),
            ),
        };
        JobStatusDto {
            id: wire_id(id),
            state,
            tenant: self.tenant.clone(),
            shed: self.shed,
            cancel_requested: self.cancel_requested,
            result,
            error,
            recovered: self.recovered,
        }
    }
}

/// The wire form of an engine job id.
pub fn wire_id(id: u64) -> String {
    format!("j-{id}")
}

/// Parses `"j-12"` back to `12`.
pub fn parse_wire_id(s: &str) -> Option<u64> {
    s.strip_prefix("j-")?.parse().ok()
}

/// All jobs this server has accepted, keyed (and ordered) by engine job
/// id. Entries are kept after they turn terminal so results stay
/// pollable. Whenever an insert leaves the table tracking more than
/// `retain_terminal` entries in total — in-flight and terminal counted
/// together — the oldest terminal entries (lowest ids; ids are
/// submission-ordered) are evicted until the total is back at the cap or
/// no terminal entry is left. In-flight entries are never evicted.
pub struct JobTable {
    jobs: Mutex<BTreeMap<u64, JobEntry>>,
    retain_terminal: usize,
}

impl JobTable {
    pub fn new(retain_terminal: usize) -> JobTable {
        JobTable {
            jobs: Mutex::new(BTreeMap::new()),
            retain_terminal: retain_terminal.max(1),
        }
    }

    /// Tracks a freshly-submitted job.
    pub fn insert(
        &self,
        id: u64,
        handle: JobHandle,
        tenant: String,
        tenant_slots: Arc<AtomicUsize>,
        shed: bool,
        trace: Option<Arc<TraceBuf>>,
    ) {
        let entry = JobEntry {
            tenant,
            tenant_slots,
            shed,
            cancel_requested: false,
            cancel: handle.cancel_flag(),
            trace,
            recovered: false,
            state: EntryState::InFlight(handle),
        };
        let mut jobs = self.jobs.lock().unwrap();
        jobs.insert(id, entry);
        self.evict_locked(&mut jobs);
    }

    /// Tracks a job re-enqueued from the durability journal: same shape
    /// as [`JobTable::insert`], but flagged `recovered` so its status
    /// (and eventual result) say so on the wire.
    pub fn insert_recovered(
        &self,
        id: u64,
        handle: JobHandle,
        tenant: String,
        tenant_slots: Arc<AtomicUsize>,
    ) {
        let entry = JobEntry {
            tenant,
            tenant_slots,
            shed: false,
            cancel_requested: false,
            cancel: handle.cancel_flag(),
            trace: None,
            recovered: true,
            state: EntryState::InFlight(handle),
        };
        let mut jobs = self.jobs.lock().unwrap();
        jobs.insert(id, entry);
        self.evict_locked(&mut jobs);
    }

    /// Tracks a job the journal already saw resolve: the entry is born
    /// terminal, so polling the original id after a restart returns the
    /// recorded verdict instead of 404. No tenant slot is held (the job
    /// is not in flight) and cancel is inert.
    pub fn insert_recovered_terminal(
        &self,
        id: u64,
        tenant: String,
        terminal: &ucp_durability::Terminal,
    ) {
        use ucp_durability::Terminal;
        let (state, cancel_requested) = match terminal {
            Terminal::Done(dto) if dto.infeasible => (
                EntryState::Terminal {
                    error: Some(WireError::new(
                        ucp_core::WireCode::Infeasible,
                        "instance has an uncoverable row",
                    )),
                    result: Some(dto.clone()),
                },
                false,
            ),
            Terminal::Done(dto) => (
                EntryState::Terminal {
                    result: Some(dto.clone()),
                    error: None,
                },
                false,
            ),
            Terminal::Failed(err) => (
                EntryState::Terminal {
                    result: None,
                    error: Some(err.clone()),
                },
                false,
            ),
            Terminal::Cancelled => (
                EntryState::Terminal {
                    result: None,
                    error: Some(WireError::new(
                        ucp_core::WireCode::Cancelled,
                        "job cancelled",
                    )),
                },
                true,
            ),
        };
        let entry = JobEntry {
            tenant,
            tenant_slots: Arc::new(AtomicUsize::new(0)),
            shed: false,
            cancel_requested,
            cancel: CancelFlag::new(),
            trace: None,
            recovered: true,
            state,
        };
        let mut jobs = self.jobs.lock().unwrap();
        jobs.insert(id, entry);
        self.evict_locked(&mut jobs);
    }

    /// Drops the oldest terminal entries while the table tracks more
    /// than `retain_terminal` entries. In-flight entries are never
    /// evicted: every accepted job stays observable until after it
    /// resolves. The walk is in id order and stops after `excess`
    /// terminal entries, so it visits only the in-flight entries older
    /// than the ones it drops.
    fn evict_locked(&self, jobs: &mut BTreeMap<u64, JobEntry>) {
        let excess = jobs.len().saturating_sub(self.retain_terminal);
        if excess == 0 {
            return;
        }
        let doomed: Vec<u64> = jobs
            .iter()
            .filter(|(_, e)| matches!(e.state, EntryState::Terminal { .. }))
            .map(|(&id, _)| id)
            .take(excess)
            .collect();
        for id in doomed {
            jobs.remove(&id);
        }
    }

    /// Polls one job, driving its state forward if the engine resolved
    /// it. `None` for unknown (or already evicted) ids.
    pub fn poll(&self, id: u64) -> Option<JobStatusDto> {
        let mut jobs = self.jobs.lock().unwrap();
        let entry = jobs.get_mut(&id)?;
        Self::advance(id, entry);
        Some(entry.status(id))
    }

    /// Requests cancellation; returns the post-cancel status. Terminal
    /// jobs are untouched (cancel is idempotent and never un-finishes).
    pub fn cancel(&self, id: u64) -> Option<JobStatusDto> {
        let mut jobs = self.jobs.lock().unwrap();
        let entry = jobs.get_mut(&id)?;
        if matches!(entry.state, EntryState::InFlight(_)) {
            entry.cancel_requested = true;
            entry.cancel.cancel();
            Self::advance(id, entry);
        }
        Some(entry.status(id))
    }

    /// Polls every in-flight job of `tenant`, reclaiming quota slots
    /// for any that finished — the sweep run before refusing admission.
    pub fn sweep_tenant(&self, tenant: &str) {
        let mut jobs = self.jobs.lock().unwrap();
        for (&id, entry) in jobs.iter_mut() {
            if entry.tenant == tenant && matches!(entry.state, EntryState::InFlight(_)) {
                Self::advance(id, entry);
            }
        }
    }

    /// Cancels every in-flight job (server shutdown).
    pub fn cancel_all(&self) {
        let mut jobs = self.jobs.lock().unwrap();
        for (&id, entry) in jobs.iter_mut() {
            if matches!(entry.state, EntryState::InFlight(_)) {
                entry.cancel_requested = true;
                entry.cancel.cancel();
                Self::advance(id, entry);
            }
        }
    }

    /// Number of tracked jobs (terminal included, evicted excluded).
    pub fn len(&self) -> usize {
        self.jobs.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The trace stream of a job, if it was submitted with `trace`.
    pub fn trace(&self, id: u64) -> Option<Option<Arc<TraceBuf>>> {
        let jobs = self.jobs.lock().unwrap();
        jobs.get(&id).map(|e| e.trace.clone())
    }

    /// Non-blocking transition: if the engine resolved the job, record
    /// the terminal state, free the tenant slot and seal the trace.
    fn advance(id: u64, entry: &mut JobEntry) {
        let EntryState::InFlight(handle) = &entry.state else {
            return;
        };
        let Some(result) = handle.try_wait() else {
            return;
        };
        entry.state = terminal_state(result);
        entry.tenant_slots.fetch_sub(1, Ordering::AcqRel);
        if let Some(trace) = &entry.trace {
            trace.finish(&entry.status(id));
        }
    }
}

/// Maps an engine verdict to the stored terminal state. An infeasible
/// outcome is a *failure* on the wire (its rows can never be covered)
/// but keeps its partial result attached — the lower bound and timings
/// are still informative.
fn terminal_state(result: JobResult) -> EntryState {
    match result {
        Ok(outcome) => {
            let dto = JobResultDto::from_outcome(&outcome);
            if outcome.infeasible {
                EntryState::Terminal {
                    error: Some(WireError::new(
                        ucp_core::WireCode::Infeasible,
                        "instance has an uncoverable row",
                    )),
                    result: Some(dto),
                }
            } else {
                EntryState::Terminal {
                    result: Some(dto),
                    error: None,
                }
            }
        }
        Err(err) => EntryState::Terminal {
            result: None,
            error: Some(WireError::new(err.wire_code(), err.to_string())),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cover::CoverMatrix;
    use ucp_core::{ScgOptions, SolveRequest};
    use ucp_durability::Terminal;
    use ucp_engine::{Engine, EngineConfig};

    /// Submits solves that stay in flight until cancelled (STS(9) never
    /// certifies, so its restart schedule runs to the end), and cancels
    /// them on drop: a failed assertion must not leave the engine's
    /// shutdown waiting on them.
    struct Blockers<'e> {
        engine: &'e Engine,
        flags: Vec<CancelFlag>,
    }

    impl Blockers<'_> {
        fn submit(&mut self) -> JobHandle {
            let rows = vec![
                vec![0, 1, 2],
                vec![3, 4, 5],
                vec![6, 7, 8],
                vec![0, 3, 6],
                vec![1, 4, 7],
                vec![2, 5, 8],
                vec![0, 4, 8],
                vec![1, 5, 6],
                vec![2, 3, 7],
                vec![0, 5, 7],
                vec![1, 3, 8],
                vec![2, 4, 6],
            ];
            let opts = ScgOptions {
                num_iter: 5_000_000,
                ..ScgOptions::default()
            };
            let m = Arc::new(CoverMatrix::from_rows(9, rows));
            let handle = self
                .engine
                .submit(SolveRequest::for_shared(m).options(opts))
                .unwrap();
            self.flags.push(handle.cancel_flag());
            handle
        }
    }

    impl Drop for Blockers<'_> {
        fn drop(&mut self) {
            for flag in &self.flags {
                flag.cancel();
            }
        }
    }

    fn tracked(table: &JobTable) -> Vec<u64> {
        table.jobs.lock().unwrap().keys().copied().collect()
    }

    #[test]
    fn eviction_takes_the_oldest_terminal_entries_and_spares_in_flight_ones() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 4,
        });
        let mut blockers = Blockers {
            engine: &engine,
            flags: Vec::new(),
        };
        let slots = || Arc::new(AtomicUsize::new(1));

        let table = JobTable::new(3);
        let terminal =
            |id: u64| table.insert_recovered_terminal(id, "t".into(), &Terminal::Cancelled);
        terminal(1);
        table.insert(2, blockers.submit(), "t".into(), slots(), false, None);
        terminal(3);
        assert_eq!(tracked(&table), [1, 2, 3], "at the cap nothing goes");
        terminal(4);
        assert_eq!(tracked(&table), [2, 3, 4], "the oldest terminal entry goes");
        terminal(5);
        terminal(6);
        assert_eq!(
            tracked(&table),
            [2, 5, 6],
            "in-flight 2 outlives younger entries"
        );
        assert!(table.poll(1).is_none());
        assert_eq!(table.poll(2).unwrap().state, JobState::Pending);

        // With only in-flight entries past the cap, nothing is evictable.
        let only_in_flight = JobTable::new(1);
        for id in [7, 8] {
            only_in_flight.insert(id, blockers.submit(), "t".into(), slots(), false, None);
        }
        assert_eq!(tracked(&only_in_flight), [7, 8]);
    }
}
