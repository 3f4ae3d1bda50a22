//! In-memory span recorder of the traced run.
//!
//! Spans are recorded around calls into each layer's public functions,
//! from the benchmark's own code; nothing inside the program under test
//! is instrumented. Each span has a name, start and end (host ns since
//! the tracer's epoch), its parent span and the op it belongs to. The
//! buffer is sized once up front so recording never allocates while an
//! op is being measured; when it is full, [`Tracer::has_room`] turns
//! false and the caller stops starting ops.

use std::fmt::Write as _;
use std::time::Instant;

/// No parent.
const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, e.g. `gateway.codec`.
    pub name: &'static str,
    /// Start, host ns since the tracer epoch.
    pub start: u64,
    /// End, host ns since the tracer epoch (0 while open).
    pub end: u64,
    /// Index of the enclosing span, or `u32::MAX`.
    pub parent: u32,
    /// Op the span belongs to.
    pub op: u32,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans of one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

/// Spans an op may record at most; ops start only while this many fit.
const MAX_SPANS_PER_OP: usize = 64;

impl Tracer {
    /// A tracer with room for `capacity` spans, timing from `epoch`.
    #[must_use]
    pub fn new(epoch: Instant, capacity: usize) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            op: 0,
        }
    }

    /// `true` while another op's spans fit in the buffer.
    #[must_use]
    pub fn has_room(&self) -> bool {
        self.spans.capacity() - self.spans.len() >= MAX_SPANS_PER_OP
    }

    /// Forgets every recorded span.
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "no span is open");
        self.spans.clear();
    }

    /// Sets the op id later spans carry.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let index = u32::try_from(self.spans.len()).expect("span index fits u32");
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied().unwrap_or(ROOT),
            op: self.op,
        });
        self.open.push(index);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let index = self.open.pop().expect("end matches a begin");
        let now = self.now();
        self.spans[index as usize].end = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// The recorded spans, consuming the tracer.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span was closed");
        self.spans
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children (children of one parent never overlap).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if span.parent != ROOT {
            let parent = span.parent as usize;
            own[parent] = own[parent].saturating_sub(span.duration());
        }
    }
    own
}

/// Appends `spans` as JSON lines (`phase` tags which run they came from).
pub fn write_jsonl(out: &mut String, phase: &str, spans: &[Span]) {
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            out,
            "{{\"phase\":\"{phase}\",\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.op, s.start, s.end
        );
    }
}
