//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! program's public functions; the program itself carries no tracing.
//! Every span has a name, start and end (ns since the tracer's epoch),
//! the span that was open when it began, and the id of the op it belongs
//! to. Spans stay in memory until the run ends and are then written out
//! as NDJSON, one span per line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub thread: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread recorder. When `on` is false every call is a plain pass
/// through, so the untraced code path pays one branch per call site.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u32,
    op: u64,
    open: Vec<u32>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Self {
        Self {
            on,
            epoch,
            thread,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts a new op: later spans carry its id. Op ids are unique per
    /// tracer and combine with the thread id into a global key.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            thread: self.thread,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.now_ns();
        self.spans[idx as usize].end_ns = end;
        out
    }

    /// Records an already-timed interval as a child of the open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op: self.op,
            thread: self.thread,
            parent: self.open.last().copied(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Moves another tracer's spans into this one (threads join their
    /// recorders here at the end of a run). Parent indices are rebased.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Wall time and rounds of a loop that alternates untraced (mode 0) and
/// traced (mode 1) blocks of whole rounds, for the tracing overhead.
#[derive(Debug, Default, Clone, Copy)]
pub struct ModeSplit {
    time: [Duration; 2],
    rounds: [u64; 2],
}

impl ModeSplit {
    pub fn add(&mut self, mode: usize, dur: Duration) {
        self.time[mode] += dur;
        self.rounds[mode] += 1;
    }

    pub fn merge(&mut self, other: &ModeSplit) {
        for m in 0..2 {
            self.time[m] += other.time[m];
            self.rounds[m] += other.rounds[m];
        }
    }

    /// Extra time per traced round over an untraced one, in percent.
    pub fn overhead_pct(&self) -> f64 {
        let per = |m: usize| self.time[m].as_secs_f64() / self.rounds[m].max(1) as f64;
        (per(1) / per(0) - 1.0) * 100.0
    }
}

/// Per-name totals: call count, total duration and self time (duration
/// minus the part covered by direct children).
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(child);
        }
        out
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Sum of the durations (ns) of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"thread\":{},\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.thread, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }

    /// A human-readable per-layer self-time table.
    pub fn self_time_table(&self) -> String {
        let mut out =
            String::from("layer                              calls     total_ms      self_ms\n");
        for (name, t) in self.totals() {
            let _ = writeln!(
                out,
                "{name:<32} {:>8} {:>12.3} {:>12.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
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
        let mut tr = Tracer::new(true, Instant::now(), 0);
        tr.next_op();
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let trace = Trace { spans: tr.spans };
        let totals = trace.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert!(inner.total_ns >= 2_000_000);
        assert!(trace.spans.iter().all(|s| s.op == 1));
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false, Instant::now(), 0);
        assert_eq!(tr.span("x", |_| 3), 3);
        assert!(tr.spans.is_empty());
    }
}
