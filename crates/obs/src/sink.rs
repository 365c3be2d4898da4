//! Trace sinks and the shared [`TraceHandle`] the instrumented layers hold.
//!
//! The design goal is that **observability is free when off**: an inactive
//! [`TraceHandle`] — [`disabled`](TraceHandle::disabled) or the
//! [`null`](TraceHandle::null) fast path — reduces every emission site to one
//! branch; the event closure is never evaluated. To pay for the full
//! instrumented path (event construction + dynamic dispatch) while still
//! discarding the events, wrap [`NullSink`] explicitly with
//! [`TraceHandle::new`] — that is what the overhead benchmark compares
//! against. Either way, sinks only observe: traced runs are byte-identical
//! to untraced ones.

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
/// [`TraceHandle::null`] short-circuits before event construction, so a null
/// handle costs the same as a disabled one. Wrapping `NullSink` with
/// [`TraceHandle::new`] instead keeps the full instrumented path (event
/// construction + dynamic dispatch) live without any storage cost — the
/// configuration the overhead benchmark measures.
#[derive(Copy, Clone, Default, Debug)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn emit(&mut self, _event: TraceEvent) {}
}

/// A bounded in-memory ring buffer of events.
///
/// Once `capacity` events are stored, each new event evicts the oldest;
/// [`dropped`](MemorySink::dropped) counts evictions so replay code can tell
/// a complete trace from a truncated one. Events are `Copy`, so recording is
/// a plain array write with no allocation after the buffer reaches capacity.
#[derive(Clone, Debug)]
pub struct MemorySink {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl MemorySink {
    /// Creates a ring buffer holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "MemorySink capacity must be positive");
        MemorySink {
            buf: Vec::new(),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Number of events currently stored.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when no events are stored.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The stored events in emission order (oldest first).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Renders the stored events as JSONL, one event per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.events() {
            event.write_jsonl(&mut out);
            out.push('\n');
        }
        out
    }
}

impl TraceSink for MemorySink {
    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
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
/// This is what the engine and schedulers store. An inactive handle
/// (disabled, or the [`null`](TraceHandle::null) fast path) makes
/// [`emit_with`](TraceHandle::emit_with) a single branch and never calls the
/// event-constructing closure — the "observability is free when off"
/// contract.
#[derive(Clone, Default)]
pub struct TraceHandle {
    sink: Option<Rc<RefCell<dyn TraceSink>>>,
    /// Whether emission sites construct and forward events. Always `true`
    /// when a sink was attached via [`TraceHandle::new`]; `false` for
    /// [`disabled`](TraceHandle::disabled) and [`null`](TraceHandle::null).
    active: bool,
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
        TraceHandle {
            sink: None,
            active: false,
        }
    }

    /// Wraps any sink in a shareable handle.
    pub fn new<S: TraceSink + 'static>(sink: S) -> Self {
        TraceHandle {
            sink: Some(Rc::new(RefCell::new(sink))),
            active: true,
        }
    }

    /// A handle over [`NullSink`] taking the no-op fast path: emission sites
    /// short-circuit exactly like [`disabled`](TraceHandle::disabled), so a
    /// null-traced run costs the same as an untraced one. Use
    /// `TraceHandle::new(NullSink)` to keep the full instrumented path live
    /// while discarding events.
    pub fn null() -> Self {
        TraceHandle {
            sink: Some(Rc::new(RefCell::new(NullSink))),
            active: false,
        }
    }

    /// An unbounded in-memory handle plus a typed reference for reading the
    /// captured events back after the run.
    pub fn memory() -> (Self, Rc<RefCell<MemorySink>>) {
        TraceHandle::memory_with_capacity(usize::MAX)
    }

    /// Like [`memory`](TraceHandle::memory) with a bounded ring capacity.
    fn memory_with_capacity(capacity: usize) -> (Self, Rc<RefCell<MemorySink>>) {
        let sink = Rc::new(RefCell::new(MemorySink::with_capacity(capacity)));
        let handle = TraceHandle {
            sink: Some(sink.clone() as Rc<RefCell<dyn TraceSink>>),
            active: true,
        };
        (handle, sink)
    }

    /// `true` when emission sites construct and record events.
    fn is_enabled(&self) -> bool {
        self.active
    }

    /// Emits the event produced by `make` iff the handle is active.
    ///
    /// The closure runs only on the active path, so callers may compute
    /// event fields (queue depths, slack) inside it without cost when
    /// tracing is off.
    #[inline]
    pub fn emit_with<F: FnOnce() -> TraceEvent>(&self, make: F) {
        if self.active {
            if let Some(sink) = &self.sink {
                sink.borrow_mut().emit(make());
            }
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
        let handle = TraceHandle::disabled();
        assert!(!handle.is_enabled());
        handle.emit_with(|| unreachable!("closure must not run when disabled"));
        assert!(handle.flush().is_ok());
    }

    #[test]
    fn null_handle_takes_the_disabled_fast_path() {
        let handle = TraceHandle::null();
        assert!(!handle.is_enabled());
        handle.emit_with(|| unreachable!("null fast path must not build events"));
        assert!(handle.flush().is_ok());
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
        for id in 0..5 {
            handle.emit_with(|| arrival(id));
        }
        let events = sink.borrow().events();
        assert_eq!(events.len(), 5);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(*e, arrival(i as u64));
        }
        assert_eq!(sink.borrow().dropped(), 0);
        assert!(!sink.borrow().is_empty());
    }

    #[test]
    fn memory_ring_evicts_oldest_and_counts_drops() {
        let (handle, sink) = TraceHandle::memory_with_capacity(3);
        for id in 0..7 {
            handle.emit_with(|| arrival(id));
        }
        let sink = sink.borrow();
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 4);
        assert_eq!(sink.events(), vec![arrival(4), arrival(5), arrival(6)]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = MemorySink::with_capacity(0);
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
