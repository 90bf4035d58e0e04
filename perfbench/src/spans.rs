//! In-memory span recorder for the traced pass.
//!
//! Each span keeps its name, start, end, parent and run id. Spans stay in
//! memory while the pass runs; [`Recorder::write_chrome_trace`] writes them
//! out once, as Chrome trace-event JSON, and [`self_times`] computes each
//! layer's self time (its span minus the part its children cover).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub run: u64,
    pub thread: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Collects spans from any number of threads.
pub struct Recorder {
    epoch: Instant,
    run: u64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // A small per-thread number for the trace viewer's lanes; it publishes
    // no other data, so Relaxed suffices.
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl Recorder {
    pub fn new(run: u64) -> Self {
        Recorder {
            epoch: Instant::now(),
            run,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; its end is set by [`Recorder::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run: self.run,
            thread: THREAD.with(|t| *t),
        });
        spans.len() - 1
    }

    /// Closes span `id`, renaming it (a cell's engine is known only after it
    /// ran), and returns its duration in seconds.
    pub fn close_as(&self, id: SpanId, name: &'static str) -> f64 {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        let span = &mut spans[id];
        span.end_ns = end_ns;
        span.name = name;
        span.seconds()
    }

    pub fn close(&self, id: SpanId) -> f64 {
        let name = self.spans.lock().expect("span recorder poisoned")[id].name;
        self.close_as(id, name)
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f(id);
        (out, self.close(id))
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    /// Writes every span as Chrome trace-event JSON (complete `X` events,
    /// microsecond timestamps), loadable in chrome://tracing or Perfetto.
    pub fn write_chrome_trace(&self, path: &str) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = String::from("{\"traceEvents\":[");
        for (id, s) in spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"run\":{}}}}}",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.run
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

/// Self time per span name, in seconds: each span's duration minus the
/// union of its children's intervals (children of one span may overlap when
/// they ran on different threads), summed over spans of the same name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); spans.len()];
    for (id, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children[parent].push(id);
        }
    }
    let mut out = BTreeMap::new();
    for (id, span) in spans.iter().enumerate() {
        let mut intervals: Vec<(u64, u64)> = children[id]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_ns.max(span.start_ns),
                    spans[c].end_ns.min(span.end_ns),
                )
            })
            .filter(|(start, end)| end > start)
            .collect();
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for (start, end) in intervals {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        let own = (span.end_ns - span.start_ns).saturating_sub(covered);
        *out.entry(span.name).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        let times = self_times(&spans);
        // Children cover 10..70 and 90..100: 70 ns of the root's 100.
        assert!((times["root"] - 30e-9).abs() < 1e-15);
        assert!((times["a"] - 40e-9).abs() < 1e-15);
    }
}
