//! The span flight recorder: a bounded, pre-allocated ring of timestamped
//! spans exportable as Chrome trace-event JSON.
//!
//! Spans carry a `&'static str` name, a track id (`tid`; the engines use 0
//! for the main thread and `shard + 1` for workers) and nanosecond offsets
//! from a shared epoch [`std::time::Instant`]. The epoch is `Copy + Send`,
//! so shard workers record against the same clock as the main thread and
//! their spans line up on one timeline. Recording never reallocates: the
//! event buffer is reserved up front and events past the capacity are
//! counted as dropped (keeping the earliest events, which is what you want
//! when diagnosing a run's warm-up and steady state).

use std::time::Instant;

/// One completed span on the shared timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (a static label: `"wavefront_dispatch"`, `"checkpoint_capture"`…).
    pub name: &'static str,
    /// Track id: 0 for the main thread, `shard + 1` for shard workers.
    pub tid: u32,
    /// Start offset from the recorder epoch, nanoseconds.
    pub start_ns: u64,
    /// Span duration, nanoseconds.
    pub dur_ns: u64,
}

/// A bounded flight recorder of [`SpanEvent`]s.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    events: Vec<SpanEvent>,
    capacity: usize,
    dropped: u64,
}

impl Recorder {
    /// An empty recorder holding at most `capacity` events, with its epoch
    /// set to now.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Recorder::with_epoch(capacity, Instant::now())
    }

    /// An empty recorder measuring offsets from an existing `epoch` — how a
    /// shard worker's private recorder shares the main thread's timeline.
    #[must_use]
    pub fn with_epoch(capacity: usize, epoch: Instant) -> Self {
        Recorder {
            epoch,
            events: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// The instant all span offsets are measured from.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Record a span that started at `started` (an `Instant::now()` taken
    /// before the work) and ends now. Allocation-free.
    #[inline]
    pub fn record(&mut self, name: &'static str, tid: u32, started: Instant) {
        let start_ns = duration_ns(self.epoch, started);
        let dur_ns = duration_ns(started, Instant::now());
        self.push(SpanEvent {
            name,
            tid,
            start_ns,
            dur_ns,
        });
    }

    /// Append one already-built event. Allocation-free; past capacity the
    /// event is counted as dropped instead.
    #[inline]
    pub fn push(&mut self, event: SpanEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// Append a batch of events (a shard worker's delta shipped at a sync
    /// barrier).
    pub fn extend_from(&mut self, events: &[SpanEvent]) {
        for e in events {
            self.push(*e);
        }
    }

    /// Recorded events, in arrival order.
    #[must_use]
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Events discarded because the recorder was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Maximum number of events the recorder holds.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drop all recorded events (keeping epoch and capacity) — how a shard
    /// worker empties its recorder after shipping a delta at a sync barrier.
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }

    /// Render as Chrome trace-event JSON: a `traceEvents` array of complete
    /// (`"ph": "X"`) events with microsecond timestamps, loadable in
    /// Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`. The
    /// `otherData` object records how many events were dropped.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\n\"traceEvents\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Chrome's ts/dur are microseconds; keep fractional precision
            // so sub-microsecond spans stay visible.
            out.push_str(&format!(
                "\n  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}}}",
                e.name,
                e.tid,
                format_us(e.start_ns),
                format_us(e.dur_ns)
            ));
        }
        out.push_str(&format!(
            "\n],\n\"otherData\": {{\"dropped_events\": {}}}\n}}\n",
            self.dropped
        ));
        out
    }
}

/// Nanoseconds from `earlier` to `later` (saturating at zero, like
/// `Instant::duration_since`).
#[inline]
fn duration_ns(earlier: Instant, later: Instant) -> u64 {
    later
        .duration_since(earlier)
        .as_nanos()
        .min(u128::from(u64::MAX)) as u64
}

/// Nanoseconds as a decimal microsecond literal (`1234` ns → `1.234`).
fn format_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_spans_against_a_shared_epoch() {
        let mut main = Recorder::new(16);
        let mut worker = Recorder::with_epoch(16, main.epoch());
        let t0 = Instant::now();
        main.record("dispatch", 0, t0);
        worker.record("batch", 1, t0);
        main.extend_from(worker.events());
        assert_eq!(main.events().len(), 2);
        assert_eq!(main.events()[0].name, "dispatch");
        assert_eq!(main.events()[1].tid, 1);
        // Same start instant, same epoch: identical offsets.
        assert_eq!(main.events()[0].start_ns, main.events()[1].start_ns);
    }

    #[test]
    fn capacity_bounds_are_enforced_without_reallocation() {
        let mut r = Recorder::new(2);
        for i in 0..5u32 {
            r.push(SpanEvent {
                name: "x",
                tid: i,
                start_ns: u64::from(i),
                dur_ns: 1,
            });
        }
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.dropped(), 3);
        // The earliest events were kept.
        assert_eq!(r.events()[0].tid, 0);
        assert_eq!(r.events()[1].tid, 1);
    }

    #[test]
    fn chrome_trace_has_the_required_shape() {
        let mut r = Recorder::new(4);
        r.push(SpanEvent {
            name: "checkpoint",
            tid: 0,
            start_ns: 1_234_567,
            dur_ns: 890,
        });
        let json = r.to_chrome_trace();
        assert!(json.contains("\"traceEvents\": ["));
        assert!(json.contains("\"name\": \"checkpoint\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ts\": 1234.567"));
        assert!(json.contains("\"dur\": 0.890"));
        assert!(json.contains("\"dropped_events\": 0"));
    }

    #[test]
    fn empty_trace_is_still_valid_json() {
        let json = Recorder::new(0).to_chrome_trace();
        assert!(json.contains("\"traceEvents\": ["));
        assert!(json.contains("\"dropped_events\": 0"));
    }

    #[test]
    fn duration_offsets_saturate_instead_of_panicking() {
        let later = Instant::now();
        // An epoch *after* the span start must clamp to zero, not panic.
        let r = Recorder::with_epoch(4, later);
        let mut r = r;
        r.record("early", 0, later - std::time::Duration::from_millis(5));
        assert_eq!(r.events()[0].start_ns, 0);
        assert!(r.events()[0].dur_ns >= 5_000_000);
    }
}
