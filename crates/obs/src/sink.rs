//! Trace sinks and the shared [`TraceHandle`] the instrumented layers hold.
//!
//! The design goal is that **observability is free when off**: a
//! [`TraceHandle`] is enabled iff it holds a sink. A
//! [`disabled`](TraceHandle::disabled) handle reduces every emission site to
//! one branch and never evaluates the event closure, and the shaper runs a
//! disabled handle on the same lanes as an untraced run. To pay for the full
//! instrumented path (event construction + dynamic dispatch) while still
//! discarding the events, wrap [`NullSink`] with [`TraceHandle::new`]. Either
//! way, sinks only observe: traced runs are byte-identical to untraced ones.

use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;

use crate::event::TraceEvent;

/// A destination for structured trace events.
///
/// Implementations must not influence scheduling: sinks observe, they never
/// answer questions, so a traced run makes exactly the decisions an untraced
/// run makes.
pub trait TraceSink {
    /// Records one event.
    fn emit(&mut self, event: TraceEvent);

    /// Flushes any buffered output. The default is a no-op.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A sink that drops every event.
///
/// Wrapped with [`TraceHandle::new`], it keeps the full instrumented path
/// (event construction + dynamic dispatch) live without any storage cost.
#[derive(Copy, Clone, Default, Debug)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn emit(&mut self, _event: TraceEvent) {}
}

/// An unbounded in-memory record of events, read back after the run
/// through the typed reference [`TraceHandle::memory`] returns. Events are
/// `Copy`, so recording is a plain `Vec` push.
#[derive(Clone, Default, Debug)]
pub struct MemorySink {
    buf: Vec<TraceEvent>,
}

impl MemorySink {
    /// Number of events currently stored.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when no events are stored.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The stored events in emission order (oldest first).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf.clone()
    }

    /// Renders the stored events as JSONL, one event per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.buf {
            event.write_jsonl(&mut out);
            out.push('\n');
        }
        out
    }
}

impl TraceSink for MemorySink {
    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        self.buf.push(event);
    }
}

/// A sink that streams events as JSONL to any [`Write`] target.
///
/// Each event becomes one JSON object on its own line; the line is formatted
/// into a reused buffer, so steady-state emission does not allocate.
#[derive(Debug)]
pub struct FileSink<W: Write> {
    out: io::BufWriter<W>,
    line: String,
}

impl<W: Write> FileSink<W> {
    /// Wraps `target` in a buffered JSONL writer.
    pub fn new(target: W) -> Self {
        FileSink {
            out: io::BufWriter::new(target),
            line: String::with_capacity(160),
        }
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(self) -> io::Result<W> {
        self.out.into_inner().map_err(|e| e.into_error())
    }
}

impl<W: Write> TraceSink for FileSink<W> {
    fn emit(&mut self, event: TraceEvent) {
        self.line.clear();
        event.write_jsonl(&mut self.line);
        self.line.push('\n');
        // Trace output is best-effort: an I/O error must never abort a run.
        let _ = self.out.write_all(self.line.as_bytes());
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// A cheap, cloneable handle to an optional trace sink.
///
/// This is what the engine and schedulers store. A handle with no sink
/// ([`disabled`](TraceHandle::disabled), the default) makes
/// [`emit_with`](TraceHandle::emit_with) a single branch and never calls the
/// event-constructing closure — the "observability is free when off"
/// contract.
#[derive(Clone, Default)]
pub struct TraceHandle {
    sink: Option<Rc<RefCell<dyn TraceSink>>>,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl TraceHandle {
    /// A disabled handle: emissions are a single untaken branch.
    pub fn disabled() -> Self {
        TraceHandle { sink: None }
    }

    /// Wraps any sink in a shareable handle.
    pub fn new<S: TraceSink + 'static>(sink: S) -> Self {
        TraceHandle {
            sink: Some(Rc::new(RefCell::new(sink))),
        }
    }

    /// An unbounded in-memory handle plus a typed reference for reading the
    /// captured events back after the run.
    pub fn memory() -> (Self, Rc<RefCell<MemorySink>>) {
        let sink = Rc::new(RefCell::new(MemorySink::default()));
        let handle = TraceHandle {
            sink: Some(sink.clone() as Rc<RefCell<dyn TraceSink>>),
        };
        (handle, sink)
    }

    /// `true` iff the handle holds a sink: emission sites then construct
    /// and record events.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits the event produced by `make` iff the handle holds a sink.
    ///
    /// The closure runs only when a sink is attached, so callers may compute
    /// event fields (queue depths, slack) inside it without cost when
    /// tracing is off.
    #[inline]
    pub fn emit_with<F: FnOnce() -> TraceEvent>(&self, make: F) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().emit(make());
        }
    }

    /// Flushes the attached sink, if any.
    pub fn flush(&self) -> io::Result<()> {
        match &self.sink {
            Some(sink) => sink.borrow_mut().flush(),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqos_trace::SimTime;

    fn arrival(id: u64) -> TraceEvent {
        TraceEvent::Arrival {
            at: SimTime::from_nanos(id),
            id,
        }
    }

    #[test]
    fn disabled_handle_never_runs_the_closure() {
        for handle in [TraceHandle::disabled(), TraceHandle::default()] {
            assert!(!handle.is_enabled());
            handle.emit_with(|| unreachable!("closure must not run when disabled"));
            assert!(handle.flush().is_ok());
        }
    }

    #[test]
    fn explicit_null_sink_runs_the_full_instrumented_path() {
        let handle = TraceHandle::new(NullSink);
        assert!(handle.is_enabled());
        let mut ran = false;
        handle.emit_with(|| {
            ran = true;
            arrival(0)
        });
        assert!(ran);
    }

    #[test]
    fn memory_sink_preserves_order() {
        let (handle, sink) = TraceHandle::memory();
        assert!(handle.is_enabled());
        for id in 0..5 {
            handle.emit_with(|| arrival(id));
        }
        let events = sink.borrow().events();
        assert_eq!(events.len(), 5);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(*e, arrival(i as u64));
        }
        assert!(!sink.borrow().is_empty());
    }

    #[test]
    fn file_sink_writes_jsonl_lines() {
        let mut sink = FileSink::new(Vec::new());
        sink.emit(arrival(1));
        sink.emit(arrival(2));
        sink.flush().unwrap();
        let bytes = sink.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"event\":\"arrival\""));
        assert!(lines[1].contains("\"id\":2"));
    }

    #[test]
    fn memory_jsonl_matches_file_sink() {
        let (handle, mem) = TraceHandle::memory();
        let mut file = FileSink::new(Vec::new());
        for id in 0..4 {
            handle.emit_with(|| arrival(id));
            file.emit(arrival(id));
        }
        let via_file = String::from_utf8(file.into_inner().unwrap()).unwrap();
        assert_eq!(mem.borrow().to_jsonl(), via_file);
    }

    #[test]
    fn shared_handle_clones_feed_one_sink() {
        let (handle, sink) = TraceHandle::memory();
        let clone = handle.clone();
        handle.emit_with(|| arrival(0));
        clone.emit_with(|| arrival(1));
        assert_eq!(sink.borrow().len(), 2);
    }
}
