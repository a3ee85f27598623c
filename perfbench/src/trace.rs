//! In-memory spans recorded around the benchmark's calls into each
//! layer. Spans are only recorded when tracing is on; with tracing off
//! [`Tracer::span`] is a plain call, so the untraced run times the same
//! code without the bookkeeping.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call: name, start, end and the span that made it.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// Span recorder for one benchmark run.
pub struct Tracer {
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            recording,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.recording
    }

    /// Turns recording on or off, so one run can alternate traced and
    /// untraced rounds of the same work.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Runs `f`, recording a span named `name` around it when tracing
    /// is on. Spans opened inside `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.recording {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.origin.elapsed();
        out
    }

    /// Records a span timed by the caller, as a child of the innermost
    /// open span: used where calls overlap (pipelined requests).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.recording {
            self.spans.push(Span {
                name,
                start: start.saturating_duration_since(self.origin),
                end: end.saturating_duration_since(self.origin),
                parent: self.open.last().copied(),
            });
        }
    }

    /// Records stage times the program measured itself (such as
    /// `ScgOutcome::phase_times`) as consecutive spans ending now, so
    /// self time can be split along them.
    pub fn record_stages(&mut self, stages: &[(&'static str, f64)]) {
        let mut end = Instant::now();
        for &(name, seconds) in stages.iter().rev() {
            let start = end - Duration::from_secs_f64(seconds.max(0.0));
            self.record(name, start, end);
            end = start;
        }
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Durations of every span named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect()
    }

    /// Self time per span name: each span's duration minus the part its
    /// direct children cover, summed by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += (s.end - s.start).as_secs_f64();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += ((s.end - s.start).as_secs_f64() - c).max(0.0);
        }
        out
    }

    /// The spans as JSON lines (`name`, `start_us`, `end_us`, `parent`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(5)));
        });
        let st = t.self_times();
        assert!(t.total("outer") >= t.total("inner"));
        assert!(st["outer"] < t.total("outer"));
        assert_eq!(t.durations("inner").len(), 1);
        assert!(t.to_jsonl().contains("\"parent\":0"));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", |_| 7);
        assert_eq!(v, 7);
        assert!(t.durations("x").is_empty());
    }
}
