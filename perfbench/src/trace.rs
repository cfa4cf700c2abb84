//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by the benchmark's own code, around calls
//! into each layer's public functions. Each span keeps its name, start
//! and end (nanoseconds since the tracer was created), the span that
//! was open on the same thread when it started (its parent), the worker
//! thread, and the grid-point index as the request id. Nothing is
//! written until the run ends; [`write_chrome`] then dumps the
//! spans as Chrome trace-event JSON.

use std::cell::Cell;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Unique within its tracer, starting at 1.
    pub id: u64,
    /// 0 when the span had no enclosing span on its thread.
    pub parent: u64,
    pub worker: u32,
    /// Grid-point index the span worked for, if any.
    pub request: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Per-thread tracing context: which tracer generation the thread's
/// worker id belongs to, the worker id, and the currently open span.
#[derive(Clone, Copy)]
struct ThreadCtx {
    generation: u64,
    worker: u32,
    current: u64,
}

thread_local! {
    static CTX: Cell<ThreadCtx> = const {
        Cell::new(ThreadCtx { generation: 0, worker: 0, current: 0 })
    };
}

static GENERATION: AtomicU64 = AtomicU64::new(1);

/// Collects the spans of one traced repetition.
pub struct Tracer {
    epoch: Instant,
    generation: u64,
    next_id: AtomicU64,
    next_worker: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            generation: GENERATION.fetch_add(1, Ordering::Relaxed),
            next_id: AtomicU64::new(1),
            next_worker: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span that closes when the guard drops. Spans opened on
    /// the same thread while it is open become its children.
    pub fn span(&self, name: &'static str, request: Option<usize>) -> SpanGuard<'_> {
        let mut ctx = CTX.with(Cell::get);
        if ctx.generation != self.generation {
            ctx = ThreadCtx {
                generation: self.generation,
                worker: self.next_worker.fetch_add(1, Ordering::Relaxed),
                current: 0,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = ctx.current;
        CTX.with(|c| c.set(ThreadCtx { current: id, ..ctx }));
        SpanGuard {
            tracer: self,
            name,
            start: Instant::now(),
            id,
            parent,
            worker: ctx.worker,
            request,
        }
    }

    /// Every closed span, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Writes spans as Chrome trace-event JSON (complete events,
/// microsecond timestamps, one track per worker thread), loadable in
/// `chrome://tracing` or Perfetto.
pub fn write_chrome(spans: &[Span], path: &Path, label: &str) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"workload\":\"{label}\"}},\"traceEvents\":["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let request = s.request.map_or("null".to_string(), |r| r.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}{}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.worker,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            request,
            if i + 1 == spans.len() { "" } else { "," }
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

/// An open span; records itself into the tracer on drop.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    name: &'static str,
    start: Instant,
    id: u64,
    parent: u64,
    worker: u32,
    request: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        let ns = |t: Instant| t.duration_since(self.tracer.epoch).as_nanos() as u64;
        let span = Span {
            name: self.name,
            start_ns: ns(self.start),
            end_ns: ns(end),
            id: self.id,
            parent: self.parent,
            worker: self.worker,
            request: self.request,
        };
        CTX.with(|c| {
            let ctx = c.get();
            c.set(ThreadCtx {
                current: self.parent,
                ..ctx
            })
        });
        // Never panic in drop: a poisoned list only loses this span.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent_and_worker() {
        let tracer = Tracer::new();
        {
            let _outer = tracer.span("outer", Some(3));
            let _inner = tracer.span("inner", Some(3));
        }
        std::thread::scope(|s| {
            s.spawn(|| drop(tracer.span("other", None)));
        });
        let spans = tracer.spans();
        let by = |n: &str| spans.iter().find(|s| s.name == n).expect("span recorded");
        assert_eq!(by("inner").parent, by("outer").id);
        assert_eq!(by("outer").parent, 0);
        assert_eq!(by("other").parent, 0);
        assert_ne!(by("other").worker, by("outer").worker);
        assert_eq!(by("inner").request, Some(3));
        assert!(by("inner").end_ns <= by("outer").end_ns);
    }
}
